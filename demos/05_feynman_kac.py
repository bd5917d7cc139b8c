"""Feynman-Kac cross-validation: the weak-form parabolic solver against the
chain BSDE, on a ladder of levels.

The two solvers share nothing but the problem data: one assembles lumped
masses and an implicit energy matrix, the other runs backward dynamic
programming on the walk kernel. Their gap at common probe points shrinks
under refinement, linear and nonlinear alike.
"""

from gasketlab import feynman_kac_check
from gasketlab.problems import build_problem, validate_problem_dict

NONLINEAR = validate_problem_dict({
    "driver": {"name": "sin", "a": -1.0, "fy": 0.5, "fz": 0.25},
    "terminal": {"name": "bump"},
    "duration": {"kind": "killed", "T": 1.0},
})
LINEAR = validate_problem_dict({
    "driver": {"name": "linear", "a": 0.5, "b": 0.3, "c": 0.4},
    "terminal": {"name": "bump"},
    "duration": {"kind": "killed", "T": 1.0},
})

times = [0.0, 0.25, 0.5, 0.75]
for name, spec in (("nonlinear  g=-u, f=0.5 sin(u)+0.25 z", NONLINEAR),
                   ("linear     (a,b,c)=(0.5,0.3,0.4)", LINEAR)):
    p = build_problem(spec)
    rep = feynman_kac_check(lambda m: (p, p), (3, 4, 5), times)
    print(f"{name}:")
    for m, e in zip(rep["levels"], rep["sup_errors"]):
        print(f"  level {m}: sup |u(t,x) - Y_0^(t)(x)| over probes = {e:.3e}")
    print(f"  strictly decreasing: {rep['decreasing']}\n")
