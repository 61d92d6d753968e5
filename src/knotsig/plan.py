"""Plans: the ring calls of one block's elimination, written down at its
first plateau sample and replayed on ints at the others (see the hermitian
module docstring for why a replay that passes its checks is the kernel's
elimination).

record runs hermitian._eliminate once over a Recorder.  replay loads each
entry of the block as (p(a + b), s(b - a)) for the p and s of its sample,
runs the plan's ops with the arithmetic of IntPairOrder inline (a product
(x0 y0 - D x1 y1, x0 y1 + x1 y0), a conjugate (x0, -x1)), keeps its
exact-division and real-pivot asserts, and checks every bareiss and add
result against the zero pattern recorded; at the first mismatch it
returns None, and the caller eliminates that sample with the kernel.

hermitian.sampler imports this module only for a block with enough
breakpoints of its own to repay a plan, so validating a Seifert matrix, or
a knot whose blocks have few breakpoints, never compiles it.
"""

from __future__ import annotations

from collections import namedtuple

from .hermitian import IntPairOrder, PivotTrace, _eliminate, hermitian_rows

# Slots 0 and 1 of a plan hold the constants one and zero; opcodes of its ops
_ONE, _ZERO = 0, 1
(_BAREISS, _BAREISS_NEW, _RESCALE, _CONJ, _BAREISS_ZERO, _ADD, _ADD_ZERO, _MUL,
 _REAL) = range(9)

Plan = namedtuple("Plan", "loads size ops pivots null")
Plan.__doc__ = """The ring calls of one elimination of a block over IntPairOrder,
as Recorder writes them down: loads are (V_ij + V_ji, V_ji - V_ij) for each
entry of hermitian_rows, in slots 2, 3, ..., size the number of slots, ops
the ring calls in order, each (opcode, output slot, operand slots...) or
without an output slot for a zero result, pivots the slots of the real
pivots and null the nullity."""


class Recorder:
    """IntPairOrder at one sample that writes each ring call the kernel makes
    into a Plan.

    A nonzero element is a triple (re, im, slot): the int pair and the slot
    the call wrote it to.  A zero result is the plain zero (0, 0), which the
    kernel drops and never reads again; an absent entry the repair adds to
    reads slot _ZERO.  Real elements are the triples of the pivot entries.
    """

    def __init__(self, order: IntPairOrder):
        self.order = order
        self.zero = order.zero
        self.one = (1, 0, _ONE)
        self.loads, self.ops, self.slots = [], [], 2

    def _out(self, v, code, *args):
        slot = self.slots
        self.slots += 1
        self.ops.append((code, slot) + args)
        return v + (slot,)

    def entry(self, a, b):
        """The entry of hermitian_rows, written to the next slot as a load."""
        self.loads.append((a + b, b - a))
        self.slots += 1
        return self.order.entry(a, b) + (self.slots - 1,)

    def plan(self, trace: PivotTrace) -> Plan:
        return Plan(self.loads, self.slots, self.ops, tuple(p[2] for p in trace.pivots),
                    trace.null)

    def bareiss(self, d, x, a, y, t):
        v = self.order.bareiss(d[0], x and x[:2], a[:2], y[:2], t[0])
        if v == self.zero:
            self.ops.append((_BAREISS_ZERO, d[2], _ZERO if x is None else x[2], a[2], y[2]))
            return v
        if x is None:
            return self._out(v, _BAREISS_NEW, a[2], y[2], t[2])
        return self._out(v, _BAREISS, d[2], x[2], a[2], y[2], t[2])

    def rescale(self, d, x, t):
        return self._out(self.order.rescale(d[0], x[:2], t[0]), _RESCALE, d[2], x[2], t[2])

    def conj(self, x):
        return self._out(self.order.conj(x[:2]), _CONJ, x[2])

    def add(self, x, y):
        xs = x[2] if len(x) == 3 else _ZERO
        v = self.order.add(x[:2], y[:2])
        if v == self.zero:
            self.ops.append((_ADD_ZERO, xs, y[2]))
            return v
        return self._out(v, _ADD, xs, y[2])

    def mul(self, x, y):
        return self._out(self.order.mul(x[:2], y[:2]), _MUL, x[2], y[2])

    def real_part_only(self, x):
        self.order.real_part_only(x[:2])
        self.ops.append((_REAL, x[2]))
        return x

    def real_inverse(self, d):
        return d


def replay(plan: Plan, order: IntPairOrder) -> PivotTrace | None:
    """The PivotTrace of the plan's block at the order's sample, from the
    plan's ring calls on ints, or None where a bareiss or add result is zero
    and was not, or is not and was, when the plan was recorded.

    _eliminate branches only on those zero tests (mul, rescale and conj of
    nonzero elements are nonzero in the domain Z[sqrt(-D)]), so a replay that
    passes them all makes _eliminate's ring calls at this sample, with its
    exact-division and real-pivot asserts, and returns its PivotTrace.
    """
    D, p, s = order.D, order.p, order.s
    pad = [0] * (plan.size - 2 - len(plan.loads))
    re = [1, 0] + [p * u for u, _ in plan.loads] + pad
    im = [0, 0] + [s * v for _, v in plan.loads] + pad
    for op in plan.ops:
        code = op[0]
        if code == _BAREISS:
            _, o, d, x, a, y, t = op
            a0, a1, y0, y1, d, t = re[a], im[a], re[y], im[y], re[d], re[t]
            r, rr = divmod(d * re[x] - a0 * y0 + D * a1 * y1, t)
            i, ri = divmod(d * im[x] - a0 * y1 - a1 * y0, t)
            assert not (rr or ri), "inexact Bareiss division"
            if not (r or i):
                return None
            re[o] = r
            im[o] = i
        elif code == _BAREISS_NEW:
            _, o, a, y, t = op
            a0, a1, y0, y1, t = re[a], im[a], re[y], im[y], re[t]
            r, rr = divmod(D * a1 * y1 - a0 * y0, t)
            i, ri = divmod(-a0 * y1 - a1 * y0, t)
            assert not (rr or ri), "inexact Bareiss division"
            if not (r or i):
                return None
            re[o] = r
            im[o] = i
        elif code == _RESCALE:
            _, o, d, x, t = op
            d, t = re[d], re[t]
            r, rr = divmod(d * re[x], t)
            i, ri = divmod(d * im[x], t)
            assert not (rr or ri), "inexact Bareiss division"
            re[o] = r
            im[o] = i
        elif code == _CONJ:
            _, o, x = op
            re[o] = re[x]
            im[o] = -im[x]
        elif code == _BAREISS_ZERO:
            _, d, x, a, y = op
            a0, a1, y0, y1, d = re[a], im[a], re[y], im[y], re[d]
            if d * re[x] - a0 * y0 + D * a1 * y1 or d * im[x] - a0 * y1 - a1 * y0:
                return None
        elif code == _ADD:
            _, o, x, y = op
            r, i = re[x] + re[y], im[x] + im[y]
            if not (r or i):
                return None
            re[o] = r
            im[o] = i
        elif code == _ADD_ZERO:
            _, x, y = op
            if re[x] + re[y] or im[x] + im[y]:
                return None
        elif code == _MUL:
            _, o, x, y = op
            x0, x1, y0, y1 = re[x], im[x], re[y], im[y]
            re[o] = x0 * y0 - D * x1 * y1
            im[o] = x0 * y1 + x1 * y0
        else:
            assert im[op[1]] == 0, "expected an involution-fixed element"
    return PivotTrace(tuple(re[k] for k in plan.pivots), plan.null)


def record(B, order: IntPairOrder) -> tuple[PivotTrace, Plan]:
    """_eliminate of the block B at the order's sample, over a Recorder:
    its PivotTrace, and the Plan that replays it at other samples."""
    rec = Recorder(order)
    trace = _eliminate(hermitian_rows(B, rec), rec)
    return PivotTrace(tuple(p[0] for p in trace.pivots), trace.null), rec.plan(trace)
