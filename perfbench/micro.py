"""Scalar kernel microbenchmark on operands harvested from real traffic.

    python3 perfbench/micro.py SPEC.json

SPEC holds `src`, `operands` (perfbench/operands.json: serialized scalars
seen in generator matrices and pivot rows of traced `adjoint-cyc` and
`relations` runs) and `result`.  For each backend (generic; cyclotomic with
l = 5 and l = 7) it times `mul` on neighbouring operand pairs, `inv` on the
nonzero operands and the canonicalising constructor (`GenericScalar.make`,
`CyclotomicField._make`) on the unreduced products of the same pairs.  Each
value is the median over passes of microseconds per operation.  An operation
the measured commit does not have is reported as null.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

BACKENDS = {"generic": 0, "cyc5": 5, "cyc7": 7}
OPS = ("mul", "inv", "make")
MIN_PASSES = 5
PASS_BUDGET_S = 0.15     # per operation and backend


def _conv(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return out


def _cyc_raw(a, b, phi):
    """Unnormalised product of two cyclotomic scalars: (num, den) with num
    reduced modulo the monic phi but not divided by its content."""
    deg = len(phi) - 1
    prod = _conv(a.num, b.num) + [0] * deg
    for k in range(len(prod) - 1, deg - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(deg):
                prod[k - deg + j] -= c * phi[j]
    return prod[:deg], a.den * b.den


def _time_per_op(fn, args):
    samples, spent = [], 0.0
    while len(samples) < MIN_PASSES or spent < PASS_BUDGET_S:
        t0 = time.perf_counter()
        for a in args:
            fn(*a)
        dt = time.perf_counter() - t0
        spent += dt
        samples.append(dt / len(args) * 1e6)
    return statistics.median(samples)


def _backend(scalars, l, texts):
    field = scalars.GENERIC if l == 0 else scalars.cyclotomic_field(l)
    xs = [field.parse(t) for t in texts]
    pairs = list(zip(xs, xs[1:] + xs[:1]))
    out = {"mul": _time_per_op(lambda a, b: a * b, pairs),
           "inv": _time_per_op(lambda a: a.inv(),
                               [(x,) for x in xs if not x.is_zero()])}
    try:
        if l == 0:
            make = type(field.one).make
            raw = [(a.shift + b.shift, _conv(a.num, b.num),
                    _conv(a.den, b.den)) for a, b in pairs if a.num and b.num]
        else:
            make = field._make
            raw = [_cyc_raw(a, b, field.phi) for a, b in pairs]
        out["make"] = _time_per_op(make, raw)
    except AttributeError:
        out["make"] = None
    return out


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from blobtensor import scalars
    with open(spec["operands"]) as fh:
        operands = json.load(fh)
    result = {}
    for backend, l in BACKENDS.items():
        texts = list(dict.fromkeys(
            t for key in sorted(operands) if key.split(":")[0] == backend
            for t in operands[key]))
        for op, us in _backend(scalars, l, texts).items():
            result[f"scalars.micro.{backend}.{op}_us"] = us
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
