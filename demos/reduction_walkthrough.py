"""Watch one reduction round-trip: detect, reduce, solve the child, lift.

The example graph is a 4-cycle with a pendant triangle.  Its degree-2
cycle vertices have non-adjacent neighbours, so the highest-priority
configuration applies: delete the vertex, bridge its neighbours, solve the
smaller graph, then lift the bridging edge along its route back through
the vertex.
"""

from gallai import Graph, detect, solve, verify
from gallai.reductions import lift, reduce

#     4---5
#      \ /
#   0---3
#   |   |
#   1---2
g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 3)])

occ = detect(g)
print("found:", occ)

plan = reduce(g, occ)
print(f"sub-case {plan.tag}/{plan.subcase}, "
      f"{len(plan.children)} child graph(s)")
for child in plan.children:
    print("  child edges:", list(child.graph.edges()),
          "synthetic:", list(child.synthetic), "routes:", list(child.routes))

child_solutions = [solve(child.graph) for child in plan.children]
for sol in child_solutions:
    print("  child decomposition:", [p.vertices for p in sol.decomposition])

lifted = lift(occ, plan, [s.decomposition for s in child_solutions])
print("lifted decomposition:", [p.vertices for p in lifted])
print("verifier says:", verify(g, lifted))

# The full solver does this at every level, on a work stack of pending
# reductions, lifting in place, and records each step.
result = solve(g)
print("solve trace:", [(s.order, s.tag, s.subcase) for s in result.trace.steps],
      "base:", result.trace.base_cases)
