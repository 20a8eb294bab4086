"""Output values pinned for the four fixture graphs.

The numbers were produced by the library at the commit that introduced the
benchmark and agree with the acceptance gate (tests/test_acceptance.py)
wherever the two overlap.  A change that moves any of them changes what the
program answers, so the benchmark counts the operation as failed.  Floats
are pinned to 9 decimal places.
"""

from fractions import Fraction


def halving(levels):
    """'1', '1/2', ..., '1/2^levels': shift-agreement masses that halve."""
    return tuple(str(Fraction(1, 2 ** level)) for level in range(levels + 1))


# graph -> (kind, rho, ((vertex, x_vertex), ...))
PERRON = {
    "b2": ("exact", ("2",), (("v", "1"),)),
    "fib": ("float", (1.618033989,), (("u", 0.618033989),
                                      ("v", 0.381966011))),
    "pullback-b2": ("exact", ("2", "2"), (("v", "1"),)),
    "product-b2-c2": ("exact", ("2", "1"), (("v:w1", "1/2"),
                                            ("v:w2", "1/2"))),
}

# (graph, box, theta_blind) -> (support_size, explicit_checked,
#                                failure_count, passed)
KMS_COLD = {
    ("b2", (1,), False): (13, 13, 0, True),
    ("b2", (1,), True): (23, 29, 12, False),
    ("b2", (2,), False): (93, 93, 0, True),
    ("b2", (2,), True): (299, 445, 292, False),
    ("b2", (3,), False): (509, 509, 0, True),
    ("b2", (3,), True): (3059, 5085, 4052, False),
    ("fib", (1,), False): (19, 19, 0, True),
    ("fib", (1,), True): (29, 39, 20, False),
    ("fib", (2,), False): (106, 106, 0, True),
    ("fib", (2,), True): (232, 354, 244, False),
    ("fib", (3,), False): (432, 432, 0, True),
    ("fib", (3,), True): (1422, 2356, 1868, False),
    ("pullback-b2", (1, 1), False): (321, 321, 0, True),
    ("pullback-b2", (1, 1), True): (941, 1393, 496, False),
    ("pullback-b2", (2, 1), False): (2689, 2689, 0, True),
    ("pullback-b2", (2, 1), True): (14033, 23105, 8568, False),
    ("pullback-b2", (2, 2), False): (25153, 25153, 0, True),
    ("pullback-b2", (2, 2), True): (228093, 402161, 128480, False),
    ("product-b2-c2", (1, 1), False): (208, 208, 0, True),
    ("product-b2-c2", (1, 1), True): (368, 464, 144, False),
    ("product-b2-c2", (2, 1), False): (1488, 1488, 0, True),
    ("product-b2-c2", (2, 1), True): (4784, 7120, 3504, False),
    ("product-b2-c2", (2, 2), False): (7626, 7626, 0, True),
    ("product-b2-c2", (2, 2), True): (24518, 36490, 11096, False),
}

# graph -> (support_size, explicit_checked) of the primed table
KMS_STATES = {
    "pullback-b2": (25153, 25153),
    "product-b2-c2": (7626, 7626),
    "fib": (106, 106),
}

GROUPS = {
    ("pullback-b2", 5): ((1, -1),),
    ("single-vertex-2,2,2", 4): (),
}

PROFILES = {
    ("pullback-b2", (1, 0), (0, 1), 5): ("1",) * 6,
    ("pullback-b2", (1, 0), (0, 0), 10): halving(10),
    ("product-b2-c2", (1, 0), (0, 0), 20): halving(20),
    ("b2", (1,), (0,), 20): halving(20),
}

# (mu, nu) on pullback-b2 -> (periodic, theta_matched, closed_form,
#                             level-3 bound)
AGREEMENT = {
    ("a1", "b1"): (True, True, "1/2", "1/2"),
    ("a1", "b2"): (True, False, "0", "0"),
    ("a1.b1", "a2.b2"): (True, False, "0", "0"),
}

# graph -> (witness degree a, K, masses m_0..m_3, passed)
DECAY = {
    "pullback-b2": ((0, 2), "3/4", ("1/2", "1/8", "1/32", "1/128"), True),
    "b2": ((2,), "3/4", ("1/2", "1/8", "1/32", "1/128"), True),
    "product-b2-c2": ((2, 0), "3/4", ("1/4", "1/16", "1/64", "1/256"), True),
}

# d -> (|table|, |images|, first pair, last pair) of theta_{(d,0),(0,d)}
THETA = {
    d: (2 ** d, 2 ** d, (".".join(["a1"] * d), ".".join(["b1"] * d)),
        (".".join(["a2"] * d), ".".join(["b2"] * d)))
    for d in range(1, 5)
}

UNITARIES = {
    "pullback-b2": (True, 68, ((-2, 2), (-1, 1), (0, 0), (1, -1), (2, -2))),
}

# graph -> periodicity basis, as `kgraph info` and `kgraph periodicity` give it
BASES = {"b2": [], "fib": [], "pullback-b2": [[1, -1]],
         "product-b2-c2": [[0, 2]]}

# graph -> the box of its `kgraph kms check` and the first six levels of its
# `kgraph measure shift --m e1 --n 0 --level 5`
CLI_BOX = {"b2": (1,), "fib": (1,), "pullback-b2": (1, 1),
           "product-b2-c2": (1, 1)}
CLI_SHIFT = {
    "b2": PROFILES[("b2", (1,), (0,), 20)][:6],
    "fib": (1.0, 0.236067977, 0.145898034, 0.090169944, 0.05572809,
            0.034441854),
    "pullback-b2": PROFILES[("pullback-b2", (1, 0), (0, 0), 10)][:6],
    "product-b2-c2": PROFILES[("product-b2-c2", (1, 0), (0, 0), 20)][:6],
}

# graph -> {kgraph command: JSON fields} for the values pinned nowhere else
CLI_OWN = {
    "b2": {
        "measure mass": {"mass": "1/4", "exact": True},
        "measure agreement": {"periodic": True, "theta_matched": False,
                              "closed_form": "0", "level_bound": "0"},
        "kms eval": {"value": {"im": "0", "re": "1/2"}, "exact": True},
        "phase": {"applicable": True, "extreme_points": 1},
        "toeplitz": {"exists": True, "factors_through_quotient": False},
    },
    "fib": {
        "measure mass": {"mass": 0.145898034, "exact": False},
        "measure agreement": {"periodic": True, "theta_matched": False,
                              "closed_form": 0.0, "level_bound": 0.0},
        "kms eval": {"value": {"im": 0.0, "re": 0.381966011},
                     "exact": False},
        "phase": {"applicable": True, "extreme_points": 1},
        "toeplitz": {"exists": True, "factors_through_quotient": False},
    },
    "pullback-b2": {
        "measure mass": {"mass": "1/4", "exact": True},
        "measure agreement": {"periodic": True, "theta_matched": True,
                              "closed_form": "1/2", "level_bound": "1/2"},
        "kms eval": {"value": {"im": "1/2", "re": "0"}, "exact": True},
        "phase": {"applicable": True, "extreme_points": "infinite"},
        "toeplitz": {"exists": True, "factors_through_quotient": False},
    },
    "product-b2-c2": {
        "measure mass": {"mass": "1/4", "exact": True},
        "measure agreement": {"periodic": True, "theta_matched": True,
                              "closed_form": "1/2", "level_bound": "1/2"},
        "kms eval": {"value": {"im": "0", "re": "1/4"}, "exact": True},
        "phase": {"applicable": False, "extreme_points": None},
        "toeplitz": {"exists": True, "factors_through_quotient": False},
    },
}


def json_rho(value):
    """A pinned rho as `kgraph info` prints it: an int when integral."""
    if isinstance(value, float):
        return value
    value = Fraction(value)
    return int(value) if value.denominator == 1 else str(value)


def cli_fields(name):
    """{kgraph command: JSON fields} of one fixture's reports."""
    kind, rho, x = PERRON[name]
    basis = BASES[name]
    support, checked, failures, passed = KMS_COLD[(name, CLI_BOX[name],
                                                   False)]
    shift = CLI_SHIFT[name]
    return {
        "info": {"rho": [json_rho(r) for r in rho], "x": dict(x),
                 "per_basis": basis, "per_rank": len(basis),
                 "exact": kind == "exact"},
        "periodicity": {"basis": basis, "rank": len(basis),
                        "aperiodic": not basis},
        "measure shift": {"levels": list(shift), "final": shift[-1]},
        "kms check": {"passed": passed, "support_size": support,
                      "explicit_checked": checked,
                      "failure_count": failures},
        **CLI_OWN[name],
    }


# (graph, kgraph command) -> JSON fields of its report
CLI = {(name, command): fields for name in PERRON
       for command, fields in cli_fields(name).items()}
