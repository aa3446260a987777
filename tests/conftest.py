import functools
import math
import random
from itertools import chain, product

import pytest

from loccap import capacity_engine as ce
from loccap import channel_model as cm
from loccap import gf_core, oracle, qcomb
from loccap.cli import fixture_path
from loccap.classify import PredicateResult
from loccap.oracle import best_choice_unpruned  # noqa: F401 (tests import it)
from loccap.subspace_enum import span_rows

FIXTURE_NAMES = ["table1.json", "table2.json", "example9.json",
                 "example6.json"]


@pytest.fixture(scope="session")
def fixtures():
    """name -> (ChannelSpec, TransitionCore) for the bundled channels."""
    out = {}
    for name in FIXTURE_NAMES:
        spec = cm.load_channel(fixture_path(name))
        out[name] = (spec, cm.transition_core(spec))
    return out


def random_small_channel(rng: random.Random, q: int = 2, t_max: int = 2):
    T = rng.randint(1, t_max)
    M = rng.randint(1, 2)
    N = rng.randint(1, 2)
    return cm.random_channel(rng, q, T, M, N)


def blahut_arimoto_reference(rows, rewards, tol, max_iter):
    """Plain Blahut-Arimoto, p(i) <- p(i) 2^d_i normalised, from the
    uniform PMF: the reference for ``capacity_engine._ba`` on three or
    more inputs.  Returns (value, PMF, gap, iterations, converged), each
    iteration certifying its point by [Arimoto's lower value, max_i
    d_i]; raises ``NonMonotoneBound`` where an output mass underflows
    or the lower value falls by more than 1e-9."""
    n = len(rows)
    columns = ce._columns(rows)
    base = [r + math.fsum([c * math.log2(c) for c in row.values()])
            for r, row in zip(rewards, rows)]
    alpha = [1.0 / n] * n
    lower = -math.inf
    for it in range(1, max_iter + 1):
        try:
            logs = {w: math.log2(math.fsum([alpha[i] * c for i, c in col]))
                    for w, col in columns.items()}
        except ValueError:
            raise ce.NonMonotoneBound(f"an output mass underflowed to 0.0 "
                                      f"at iteration {it}") from None
        d = [b - math.fsum([c * logs[w] for w, c in row.items()])
             for b, row in zip(base, rows)]
        upper = max(d)
        scaled = [a * 2.0 ** (di - upper) for a, di in zip(alpha, d)]
        z = math.fsum(scaled)
        value = upper + math.log2(z)
        if not value >= lower - 1e-9:
            raise ce.NonMonotoneBound(
                f"lower bound decreased: {lower} -> {value}")
        lower = value
        if upper - lower <= tol:
            return lower, alpha, upper - lower, it, True
        alpha = [s / z for s in scaled]
    return lower, alpha, upper - lower, max_iter, False


def two_input_bisection_reference(rows, rewards, tol, max_iter):
    """Bisection of t = p(0) - p(1) in (-1, 1) from t = 0, toward the
    input with the larger score, each point certified by [Arimoto's lower
    value, max_i d_i]: the reference for ``capacity_engine._ba`` on two
    inputs.  Returns (value, PMF, gap, iterations, converged); a run
    stops unconverged once its bracket has no float between its ends."""
    base = [r + math.fsum([c * math.log2(c) for c in row.values()])
            for r, row in zip(rewards, rows)]
    outputs = set(rows[0]) | set(rows[1])
    lo, t, hi = -1.0, 0.0, 1.0
    for it in range(1, max_iter + 1):
        alpha = [(1.0 + t) / 2, (1.0 - t) / 2]
        logs = {w: math.log2(math.fsum([a * row.get(w, 0.0)
                                        for a, row in zip(alpha, rows)]))
                for w in outputs}
        d = [b - math.fsum([c * logs[w] for w, c in row.items()])
             for b, row in zip(base, rows)]
        upper = max(d)
        value = upper + math.log2(math.fsum(
            [a * 2.0 ** (di - upper) for a, di in zip(alpha, d)]))
        if upper - value <= tol:
            return value, alpha, upper - value, it, True
        if d[0] > d[1]:
            lo = t
        else:
            hi = t
        t = (lo + hi) / 2
        if t in (lo, hi):
            break
    return value, alpha, upper - value, it, False


def rank_joint(core, alpha):
    """Joint PMF of (rank X, rank Y) induced by a row-space input PMF,
    exact when alpha is."""
    out = {}
    for u, pu in alpha.items():
        if pu == 0:
            continue
        for s, ps in cm.cond_rank_given_rowspace(core, u).items():
            key = (u.dim, s)
            out[key] = out.get(key, 0) + pu * ps
    return out


def spec_to_dict(spec):
    """The channel file's document of spec, items in sorted-H order: the
    reference for ``channel_model.save_channel``, whose bytes are
    ``json.dumps(spec_to_dict(spec), indent=1) + "\n"``."""
    return {
        "q": spec.field.q, "T": spec.T, "M": spec.M, "N": spec.N,
        "pmf": [{"H": gf_core.row_lists(h, spec.N),
                 "p": f"{p.numerator}/{p.denominator}"}
                for h, p in sorted(spec.pmf_H.items())],
    }


def support_matrix(spec, h):
    """The support key h of spec.pmf_H as an M x N ``MatrixGF``."""
    return gf_core.MatrixGF(spec.field, spec.M, spec.N, h)


def is_uniform_given_rank_reference(spec):
    """The uniform-given-rank test with one ``gf_core.rank`` per support
    matrix: the reference for ``classify.is_uniform_given_rank``."""
    by_rank: dict = {}
    for h in sorted(spec.pmf_H):
        by_rank.setdefault(gf_core.rank(support_matrix(spec, h)),
                           []).append(h)
    for r, mats in sorted(by_rank.items()):
        first = mats[0]
        for h in mats[1:]:
            if spec.pmf_H[h] != spec.pmf_H[first]:
                return PredicateResult(False, {
                    "reason": "unequal mass at equal rank",
                    "rank": r, "H1": gf_core.row_lists(first, spec.N),
                    "H2": gf_core.row_lists(h, spec.N),
                    "p1": str(spec.pmf_H[first]), "p2": str(spec.pmf_H[h])})
        shell = qcomb.xi2(spec.M, spec.N, r, spec.field.q)
        if len(mats) != shell:
            return PredicateResult(False, {
                "reason": "rank shell only partially covered",
                "rank": r, "support": len(mats), "shell_size": shell})
    return PredicateResult(True)


def row_steps(field, n, keys, rows):
    """The distinct steps (row space of the first k rows, row k + 1) met
    reading the row-major entry tuples keys of rows x n matrices row by
    row, each row space from one ``span_rows`` per distinct prefix: the
    steps a ``subspace_enum.RowSpaces`` table reduces to read keys."""
    spans = {(): (0, ())}       # the sort key of {0}
    steps = set()
    for h in keys:
        for k in range(0, rows * n, n):
            prefix = h[:k]
            if prefix not in spans:
                spans[prefix] = span_rows(gf_core.MatrixGF(
                    field, k // n, n, prefix)).sort_key()
            steps.add((spans[prefix], h[k:k + n]))
    return steps


@functools.cache
def _general_linear(q, M):
    """The rows of every g in GL(M, q), from enumerate_full_rank."""
    return [tuple(zip(*[iter(g.entries)] * M))
            for g in gf_core.enumerate_full_rank(M, M, gf_core.FieldSpec(q))]


def gl_invariant_reference(spec):
    """Whether pmf(g @ H) = pmf(H) for every g in GL(M, q) and every H in
    the support, forming every product g @ H: row i of g @ H is looked up
    in a table of the q^M combinations of the rows of H, and the products
    are formed once per orbit {g @ H} met."""
    q, M, N = spec.field.q, spec.M, spec.N
    done = set()
    for h, p in spec.pmf_H.items():
        if h in done:
            continue
        rows = [h[k:k + N] for k in range(0, M * N, N)]
        combo = {c: tuple(sum(a * r[j] for a, r in zip(c, rows)) % q
                          for j in range(N))
                 for c in product(range(q), repeat=M)}
        orbit = {tuple(chain.from_iterable(map(combo.__getitem__, g)))
                 for g in _general_linear(q, M)}
        if any(spec.pmf_H.get(x) != p for x in orbit):
            return False
        done |= orbit
    return True


def assert_core_matches_reference(core, invariant):
    """core equals ``oracle.transition_core_reference``: the same classes
    in the same order, equal tables and equal fibers.  Keys come in the
    order of the first H giving each E in every table of a channel whose
    law is not GL(M)-invariant, and in the first table of each dimension
    of one whose law is: the later classes there share that table."""
    ref = oracle.transition_core_reference(core.spec)
    assert list(core.tables) == list(ref.tables), core.spec
    dims = set()
    for u, table in ref.tables.items():
        assert core.tables[u] == table, core.spec
        if not (invariant and u.dim in dims):
            assert list(core.tables[u]) == list(table), core.spec
        dims.add(u.dim)
    assert core.fibers == ref.fibers, core.spec


def rank_pmf_reference(spec):
    """P(rank H = r) with one ``gf_core.rank`` per support matrix, keyed
    in first-occurrence order: the reference for ``ChannelSpec.rank_pmf``."""
    out: dict = {}
    for h, p in spec.pmf_H.items():
        r = gf_core.rank(support_matrix(spec, h))
        out[r] = out.get(r, 0) + p
    return out


def mi_alpha_reference(core, alpha):
    """I(X;Y) = H(Y) - H(Y|X) at the input uniform on each row-space
    fiber with weights alpha: the output matrix mass m(W) spread over
    the xi(T, dim W) matrices of each row space W, and the entropy of
    each class table.  The reference for ``capacity_engine.mi_alpha``,
    which takes it as I(U;W) plus the alpha-weighted mean reward."""
    spec = core.spec
    mass, h_cond = {}, 0.0
    for u, a in alpha.items():
        a = float(a)
        if a == 0.0:
            continue
        for w, f in core.fibers[u].items():
            mass[w] = mass.get(w, 0.0) + a * float(f.mass)
        h_cond += a * -sum(float(p) * ce._log2(p)
                           for p in core.tables[u].values())
    h_y = -sum(m * (math.log2(m)
                    - ce._log2(qcomb.xi(spec.T, w.dim, spec.field.q)))
               for w, m in mass.items() if m > 0.0)
    return h_y - h_cond


def merged_classes_reference(core):
    """The first class of each (mass row, sorted table values)
    signature, in class order: the classes the Shannon solver keeps when
    it merges classes with one output law.  The reference for
    ``capacity_engine._shannon_capacity``, which merges on (mass row,
    reward)."""
    setup = ce._class_setup(core)
    first = {}
    for u, row in zip(setup.classes, setup.mass_rows):
        values = tuple(sorted(core.tables[u].values()))
        first.setdefault((tuple(sorted(row.items())), values), u)
    return list(first.values())
