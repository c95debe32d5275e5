"""Genus bookkeeping for X0(p^3): budgets and surveys.

Run:  python demos/06_genus_ledger.py
"""

from stablelab import ledger

print("Genus of X0(p^3) by the classical formula:")
for p in (5, 7, 13, 17):
    print(f"  g(X0({p**3})) = {ledger.genus_x0(p**3)}")
print()

print("Supersingular census (Eichler mass formula sum 1/|Aut| = (p-1)/24):")
for p in (5, 7, 13, 17):
    survey = ledger.ss_survey(p)
    print(f"  p = {p:2d}: {survey.entries}  mass {survey.mass}")
print()

print("Component budget: per supersingular curve, 2(p+1)/i components of")
print("genus (p-1)/2; the Edixhoven-type and ordinary components have genus 0:")
for p in (5, 7, 13, 17):
    budget = ledger.component_budget(p)
    mark = "exact!" if budget.exact else "<="
    print(f"  p = {p:2d}: known total {budget.total_known:4d} {mark} "
          f"{budget.curve_genus}")
