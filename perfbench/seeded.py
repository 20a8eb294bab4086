"""The seeded input graph: a random single-vertex 2-graph.

A single vertex with three loops of each color, whose square table is a
random bijection of loop pairs drawn from the workload seed.  At rank 2
every such bijection satisfies the k-graph axioms (Davidson-Yang, Canad. J.
Math. 61, 2009), so every seed yields a valid graph with rho = (3, 3) and
x = (1).
"""

import json
import random

LOOPS = (3, 3)


def seeded_squares(seed):
    """{(1, 2): {(s, t): (u, v)}}: x_s y_t = y_u x_v for a seeded bijection."""
    rng = random.Random(seed)
    pairs = [(s, t) for s in range(1, LOOPS[0] + 1)
             for t in range(1, LOOPS[1] + 1)]
    images = [(u, v) for u in range(1, LOOPS[1] + 1)
              for v in range(1, LOOPS[0] + 1)]
    rng.shuffle(images)
    return {(1, 2): dict(zip(pairs, images))}


def seeded_graph(seed):
    from kgraphs.builders import make_single_vertex

    return make_single_vertex(2, list(LOOPS), seeded_squares(seed))


def squares_flag(seed):
    """The seeded squares as the value of `kgraph gen --squares`."""
    table = seeded_squares(seed)[(1, 2)]
    rows = [[s, t, u, v] for (s, t), (u, v) in sorted(table.items())]
    return json.dumps({"1,2": rows}, separators=(",", ":"))
