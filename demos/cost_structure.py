"""Read congestion and waste straight off the preference-cost matrix.

Two structural results drive this demo: a strictly negative cycle in the
differentiation costs forces an at-capacity trade pair somewhere on the
cycle, and pairwise cost asymmetry picks which direction congests.

Run:  python3 demos/cost_structure.py
"""

from peertrade import market, scenario as sc, structure as st

scn = sc.builtin("three_node")

cycles = st.detect_preference_cycles(scn)
print("preference cycles in the benchmark:")
for c in cycles:
    print(f"  nodes {c.nodes}: weight {c.weight:+g} ({c.sign})")

sol = market.solve_centralized(scn)
neg = cycles[0]
verdict = st.verify_cycle_congestion(scn, neg, sol)
print()
print(f"the negative cycle predicts an opposed at-capacity trade; "
      f"found on edge {verdict.edge}: {verdict.verified}")
print(f"  q[{verdict.edge[0]}][{verdict.edge[1]}] = "
      f"{sol.q[verdict.edge[0]][verdict.edge[1]]:.3f} "
      f"at capacity {scn.kappa(verdict.edge[1], verdict.edge[0])}")

# pure pairwise asymmetry, no cycle needed: make the 1-2 pair lopsided
# while keeping both root links identical
star = sc.with_costs(scn, {(1, 0): 1.0, (2, 0): 1.0, (0, 1): 1.0,
                           (0, 2): 1.0, (1, 2): 0.3, (2, 1): 0.9}, "star")
preds = st.predict_asymmetry_congestion(star)
ssol = market.solve_centralized(star)
print()
print("asymmetric pair on a uniform star:")
for p in preds:
    a, b = p.direction
    print(f"  predicted congested direction q[{a}][{b}]; solved value "
          f"{ssol.q[a][b]:.3f} at capacity {star.kappa(a, b)}")

# waste certificates: at the welfare optimum a trade provably never
# wastes if the buyer's own price beats its trading friction
ok, witness = st.no_waste_necessary(scn)
print()
print(f"benchmark can absorb all infeed without waste: {ok} "
      f"(witness node {witness})")
certs = st.waste_certificates(scn, sol)
for c in certs:
    state = "certified waste-free" if c.certified else "no certificate"
    print(f"  pair {c.pair}: {state} (margin {c.margin:.3f}, "
          f"observed waste {c.observed_waste:.2e})")

dot = st.to_dot(scn, sol)
out = "/tmp/three_node_trades.dot"
with open(out, "w", encoding="utf-8") as fh:
    fh.write(dot)
print()
print(f"wrote {out} (red = congested line, green = free): render with "
      f"'dot -Tpng {out} -o trades.png'")
