"""Genus bookkeeping for X0(p^3): budgets and surveys.

Run:  python demos/06_genus_ledger.py
"""

from stablelab import ledger

PRIMES = (5, 7, 13, 17)

print("Genus of X0(p^3) by the classical formula:")
genera = {p: ledger.genus_x0(p**3) for p in PRIMES}
for p, genus in genera.items():
    print(f"  g(X0({p**3})) = {genus}")
print()

print("Supersingular census (Eichler mass formula sum 1/|Aut| = (p-1)/24):")
surveys = {p: ledger.ss_survey(p) for p in PRIMES}
for p, survey in surveys.items():
    print(f"  p = {p:2d}: {survey.entries}  mass {survey.mass}")
print()

print("Component budget: per supersingular curve, 2(p+1)/i components of")
print("genus (p-1)/2; the Edixhoven-type and ordinary components have genus 0.")
print("It reads the census and the genus above rather than computing them again:")
for p in PRIMES:
    total = ledger.component_budget(p, surveys[p], genera[p])
    mark = "exact!" if total == genera[p] else "<="
    print(f"  p = {p:2d}: known total {total:4d} {mark} {genera[p]}")
