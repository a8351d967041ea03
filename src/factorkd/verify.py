"""Oracle-equivalence and gradient suites runnable from the CLI.

Every dynamic program and every loss in the package is checked here against
the brute-force enumeration oracle or central finite differences, at the
tolerances the package promises (1e-9 for marginals and the factorized KD
identity, 1e-4 relative for gradients).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import chain_crf, distill, oracle, span_ner
from .chain_crf import ChainLattice, lattice_objective
from .corpus import HeadAssignment, LabelAlphabet, SpanSet, TagSequence
from .distill import TemperatureConfig, teacher_marginal_table
from .head_parser import (
    ArcDistributions,
    arc_marginal,
    mfvi_second_order,
    self_mask,
)
from .models import new_model
from .numerics import rows_objective, softmax_last
from .span_ner import SpanScoreTable
from .token_maxent import MaxEntTagger, TokenDistributions, pair_marginals_from_tokens

MARGINAL_TOL = 1e-9
GRAD_TOL = 1e-4
STATIONARY_TOL = 1e-7
FLAT_DIRECTION = 1e-7


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def _check(name, worst, tol):
    return Check(name, bool(worst <= tol), f"worst {worst:.3e} (tol {tol:.0e})")


# ---------------------------------------------------------------------------
# Random instances


_VOCAB = [f"tok{k}" for k in range(40)] + ["Amsterdam", "Maria", "runs", "x", "Zb"]


def rand_tokens(rng, n):
    return [_VOCAB[rng.integers(len(_VOCAB))] for _ in range(n)]


def rand_lattice(rng, n, L, scale=2.0) -> ChainLattice:
    return ChainLattice(
        rng.uniform(-scale, scale, (n, L)),
        rng.uniform(-scale, scale, (max(n - 1, 0), L, L)),
        rng.uniform(-scale, scale, L),
        rng.uniform(-scale, scale, L),
    )


def rand_span_table(rng, n, T, scale=1.5) -> SpanScoreTable:
    scores = rng.uniform(-scale, scale, (n, n, T))
    return SpanScoreTable(scores)


# normal-draw scale per parameter block; every other block draws at 0.5
_SCALES = {"trans": 0.8, "start": 0.8, "stop": 0.8, "sib_weights": 0.3, "sib_bias": 0.3}


def _randomize(model, rng):
    for name, a in model.params.items():
        a[:] = rng.normal(0.0, _SCALES.get(name, 0.5), a.shape)
    return model


def rand_model(family, rng, n_labels=3, bits=12):
    """A model of the family with every parameter block filled by normal
    draws, block after block."""
    if family == "ner-span":
        alpha = LabelAlphabet("entity-types", [f"T{i}" for i in range(n_labels)])
    else:
        alpha = LabelAlphabet("labels", [f"L{i}" for i in range(n_labels)])
    return _randomize(new_model(family, alpha.freeze(), bits=bits), rng)


# ---------------------------------------------------------------------------
# Chain suite


def suite_chain(trials=100, seed=0):
    rng = np.random.default_rng(seed)
    worst_z = worst_pair = worst_unary = worst_cons = worst_shift = 0.0
    viterbi_bad = 0
    by_labels = {}  # L -> [(oracle log Z, log Z, marginals, oracle pair, oracle unary, lattice)]
    for _ in range(trials):
        n = int(rng.integers(1, 7))
        L = int(rng.integers(2, 5))
        lat = rand_lattice(rng, n, L)
        e = oracle.enumerate_chain(lat)
        log_z, ref_z = chain_crf.log_partition(lat), oracle.log_partition(e)
        worst_z = max(worst_z, abs(log_z - ref_z))
        marg = chain_crf.pairwise_marginals(lat)
        ref_pair, ref_unary = oracle.chain_marginals(e, L)
        by_labels.setdefault(L, []).append((ref_z, log_z, marg, ref_pair, ref_unary, lat))
        if n > 1:
            worst_pair = max(worst_pair, np.abs(marg.pairwise - ref_pair).max())
            worst_cons = max(
                worst_cons,
                np.abs(marg.pairwise.sum(axis=2) - marg.unary[:-1]).max(),
                np.abs(marg.pairwise.sum(axis=1) - marg.unary[1:]).max(),
            )
        worst_unary = max(worst_unary, np.abs(marg.unary - ref_unary).max())
        worst_unary = max(worst_unary, np.abs(chain_crf.unary_marginals(lat) - ref_unary).max())

        vit = chain_crf.viterbi(lat)
        best = oracle.chain_mode(e)
        if tuple(vit.tags) != tuple(best):
            viterbi_bad += 1

        c = float(rng.uniform(-3, 3))
        pos = int(rng.integers(n))
        shifted = ChainLattice(
            lat.emissions.copy(), lat.transitions.copy(), lat.start.copy(), lat.stop.copy()
        )
        shifted.emissions[pos] += c
        worst_shift = max(
            worst_shift,
            abs(chain_crf.log_partition(shifted) - (chain_crf.log_partition(lat) + c)),
            np.abs(chain_crf.unary_marginals(shifted) - marg.unary).max(),
        )

    # the same lattices as padded mini-batches (one per label count, mixed
    # lengths) vs the one-lattice views and the enumeration
    worst_batch = 0.0
    for rows in by_labels.values():
        batch_z, margs = chain_crf.forward_backward([row[-1] for row in rows])
        for (ref_z, log_z, single, ref_pair, ref_unary, lat), z, marg in zip(rows, batch_z, margs):
            worst_batch = max(
                worst_batch,
                abs(z - ref_z),
                abs(z - log_z),
                np.abs(marg.unary - ref_unary).max(),
                np.abs(marg.unary - single.unary).max(),
            )
            if lat.n > 1:
                worst_batch = max(
                    worst_batch,
                    np.abs(marg.pairwise - ref_pair).max(),
                    np.abs(marg.pairwise - single.pairwise).max(),
                )

    # forbidden transition yields an exactly-zero pairwise marginal
    lat = rand_lattice(np.random.default_rng(seed + 1), 3, 3)
    lat.transitions[1, 0, 1] = -np.inf
    zero_ok = chain_crf.pairwise_marginals(lat).pairwise[1, 0, 1] == 0.0

    return [
        _check(f"chain log-partition vs enumeration ({trials})", worst_z, MARGINAL_TOL),
        _check(f"chain pairwise marginals vs enumeration ({trials})", worst_pair, MARGINAL_TOL),
        _check(f"chain unary marginals vs enumeration ({trials})", worst_unary, MARGINAL_TOL),
        _check("chain pairwise/unary consistency", worst_cons, MARGINAL_TOL),
        _check("chain emission shift invariance", worst_shift, MARGINAL_TOL),
        _check(
            f"chain batched forward-backward vs single and enumeration ({trials})",
            worst_batch,
            MARGINAL_TOL,
        ),
        Check(
            f"chain viterbi vs enumeration argmax ({trials})",
            viterbi_bad == 0,
            f"{viterbi_bad} mismatches",
        ),
        Check("chain -inf transition gives exact-zero marginal", zero_ok, "exact zero"),
    ]


# ---------------------------------------------------------------------------
# Span suite


def suite_spans(trials=100, seed=0):
    rng = np.random.default_rng(seed)
    worst_z = worst_dir = worst_rows = worst_pres = worst_sum = 0.0
    edge_bad = decode_bad = 0
    by_types = {}  # T -> [(table, oracle log Z, oracle rows, oracle presence, single results)]
    for _ in range(trials):
        n = int(rng.integers(1, 7))
        T = int(rng.integers(1, 4))
        table = rand_span_table(rng, n, T)
        e = oracle.enumerate_spans(table)
        ref_z = oracle.log_partition(e)
        ref_rows, ref_pres = oracle.span_bioes_rows(e, T), oracle.span_presence(e, T)
        log_z = span_ner.span_log_partition(table)
        worst_z = max(worst_z, abs(log_z - ref_z))
        worst_dir = max(
            worst_dir, abs(span_ner.prefix_log_partitions(table)[n] - log_z)
        )
        m = span_ner.bioes_marginals(table)
        worst_rows = max(worst_rows, np.abs(m.rows - ref_rows).max())
        worst_sum = max(worst_sum, np.abs(m.rows.sum(axis=1) - 1.0).max())
        pres = span_ner.span_marginals(table)
        worst_pres = max(worst_pres, np.abs(pres - ref_pres).max())
        by_types.setdefault(T, []).append((table, ref_z, ref_rows, ref_pres, log_z, m.rows, pres))
        for l in range(T):
            col = 1 + 4 * l
            if m.rows[n - 1, col] != 0.0 or m.rows[0, col + 2] != 0.0:
                edge_bad += 1
            if m.rows[0, col + 1] != 0.0 or m.rows[n - 1, col + 1] != 0.0:
                edge_bad += 1
        dec = span_ner.decode_spans(table)
        dec_score = sum(table.scores[s - 1, e2 - 1, l] for s, e2, l in dec)
        best = oracle.span_argmax(e)
        best_score = sum(table.scores[s - 1, e2 - 1, l] for s, e2, l in best)
        if abs(dec_score - best_score) > MARGINAL_TOL:
            decode_bad += 1

    # the same tables as length-grouped batches (one per type count, mixed
    # lengths) vs the one-table views and the enumeration
    worst_batch = 0.0
    for rows in by_types.values():
        tables = [row[0] for row in rows]
        grouped = zip(
            span_ner.per_length(span_ner.stack_span_marginals, tables),
            span_ner.per_length(span_ner.stack_bioes_rows, tables),
        )
        for (_, ref_z, ref_rows, ref_pres, log_z, single_rows, single_pres), ((z, pres), b) in zip(
            rows, grouped
        ):
            worst_batch = max(
                worst_batch,
                abs(z - ref_z),
                abs(z - log_z),
                np.abs(pres - ref_pres).max(),
                np.abs(pres - single_pres).max(),
                np.abs(b - ref_rows).max(),
                np.abs(b - single_rows).max(),
            )
    return [
        _check(f"span log-partition vs enumeration ({trials})", worst_z, MARGINAL_TOL),
        _check("span prefix/suffix partitions agree", worst_dir, MARGINAL_TOL),
        _check(f"span BIOES marginals vs enumeration ({trials})", worst_rows, MARGINAL_TOL),
        _check("span BIOES rows sum to one", worst_sum, MARGINAL_TOL),
        _check("span presence marginals vs enumeration", worst_pres, MARGINAL_TOL),
        _check(
            f"span length-grouped batch vs single and enumeration ({trials})",
            worst_batch,
            MARGINAL_TOL,
        ),
        Check("span boundary-impossible tags are exactly zero", edge_bad == 0, f"{edge_bad} bad"),
        Check("span max-decode score matches enumeration", decode_bad == 0, f"{decode_bad} bad"),
    ]


# ---------------------------------------------------------------------------
# Head suite


def _mfvi_reference(arc, sib, iterations):
    """Plain-loop re-evaluation of the mean-field update."""
    n = arc.shape[0]
    masked = arc + self_mask(n)
    q = softmax_last(masked)
    for _ in range(iterations):
        logits = masked.copy()
        for i in range(n):
            for j in range(n + 1):
                s = 0.0
                for k in range(n):
                    if k != i:
                        s += sib[i, k, j] * q[k, j]
                logits[i, j] += s
        q = softmax_last(logits)
    return q


def suite_heads(trials=100, seed=0):
    rng = np.random.default_rng(seed)
    worst_rowsum = worst_prod = worst_ref = worst_zero = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 5))
        R = int(rng.integers(1, 3))
        arc = rng.uniform(-2, 2, (n, n + 1))
        rel = rng.uniform(-2, 2, (n, R))
        rows = ArcDistributions(softmax_last(arc + self_mask(n)), softmax_last(rel))
        worst_rowsum = max(
            worst_rowsum,
            np.abs(rows.head_rows.sum(axis=1) - 1.0).max(),
            np.abs(rows.rel_rows.sum(axis=1) - 1.0).max(),
        )
        for i in range(n):
            total = sum(
                arc_marginal(rows, i, j, r)
                for j in oracle.head_candidates(n, i + 1)
                for r in range(R)
            )
            worst_prod = max(worst_prod, abs(total - 1.0))

        sib = rng.uniform(-1, 1, (n, n, n + 1))
        k = int(rng.integers(0, 4))
        q = mfvi_second_order(arc, sib, k)
        worst_ref = max(worst_ref, np.abs(q - _mfvi_reference(arc, sib, k)).max())
        worst_rowsum = max(worst_rowsum, np.abs(q.sum(axis=1) - 1.0).max())
        q0 = mfvi_second_order(arc, np.zeros_like(sib), k)
        worst_zero = max(worst_zero, np.abs(q0 - softmax_last(arc + self_mask(n))).max())
    return [
        _check("head/rel rows are distributions", worst_rowsum, MARGINAL_TOL),
        _check("arc marginals sum to one per token", worst_prod, MARGINAL_TOL),
        _check(f"mean-field matches plain re-evaluation ({trials})", worst_ref, MARGINAL_TOL),
        _check("mean-field with zero sibling scores is first-order", worst_zero, 0.0),
    ]


# ---------------------------------------------------------------------------
# KD identity suite


def _teacher_chain_enum(lat):
    return oracle.enumerate_chain(lat)


def _product_chain_enum(rows):
    n, L = rows.shape
    structures = list(itertools.product(range(L), repeat=n))
    e = oracle.StructureEnumeration("chain", n, structures, np.zeros(len(structures)))
    e.log_weights = oracle.rows_log_probs_chain(e, rows)
    return e


def _heads_enum_from_rows(d: ArcDistributions):
    with np.errstate(divide="ignore"):
        return oracle.enumerate_heads(
            d.n, d.n_rels, np.log(d.head_rows), np.log(d.rel_rows)
        )


def kd_identity_case(case, rng):
    """(factorized loss, enumerated cross-entropy) for one random pair."""
    if case == "1a":
        n, L = int(rng.integers(1, 6)), int(rng.integers(2, 4))
        t_lat, s_lat = rand_lattice(rng, n, L), rand_lattice(rng, n, L)
        table = chain_crf.pairwise_marginals(t_lat)
        loss, _ = lattice_objective(s_lat, None, table, 1.0)
        e = _teacher_chain_enum(t_lat)
        return loss, oracle.cross_entropy(e, oracle.chain_log_probs(e, s_lat))
    if case == "3":
        n, L = int(rng.integers(1, 6)), int(rng.integers(2, 4))
        rows = softmax_last(rng.uniform(-2, 2, (n, L)))
        s_lat = rand_lattice(rng, n, L)
        table = pair_marginals_from_tokens(TokenDistributions(rows))
        loss, _ = lattice_objective(s_lat, None, table, 1.0)
        e = _product_chain_enum(rows)
        return loss, oracle.cross_entropy(e, oracle.chain_log_probs(e, s_lat))
    if case == "2a":
        n, L = int(rng.integers(1, 6)), int(rng.integers(2, 4))
        t_lat = rand_lattice(rng, n, L)
        logits = rng.uniform(-2, 2, (n, L))
        table = TokenDistributions(chain_crf.pairwise_marginals(t_lat).unary)
        loss, _ = rows_objective([(logits, None, table.rows)], 1.0)
        e = _teacher_chain_enum(t_lat)
        return loss, oracle.cross_entropy(
            e, oracle.rows_log_probs_chain(e, softmax_last(logits))
        )
    if case in ("1b", "2b"):
        n, R = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        t_arc = rng.uniform(-2, 2, (n, n + 1))
        t_rel = rng.uniform(-2, 2, (n, R))
        if case == "1b":
            head_rows = softmax_last(t_arc + self_mask(n))
        else:
            head_rows = mfvi_second_order(t_arc, rng.uniform(-1, 1, (n, n, n + 1)), 3)
        d = ArcDistributions(head_rows, softmax_last(t_rel))
        s_arc = rng.uniform(-2, 2, (n, n + 1)) + self_mask(n)
        s_rel = rng.uniform(-2, 2, (n, R))
        loss, _ = rows_objective([(s_arc, None, d.head_rows), (s_rel, None, d.rel_rows)], 1.0)
        e = _heads_enum_from_rows(d)
        return loss, oracle.cross_entropy(
            e, oracle.heads_log_probs(e, softmax_last(s_arc), softmax_last(s_rel))
        )
    if case == "4":
        n, T = int(rng.integers(1, 7)), int(rng.integers(1, 3))
        table = rand_span_table(rng, n, T)
        rows = span_ner.bioes_marginals(table)
        logits = rng.uniform(-2, 2, (n, 1 + 4 * T))
        loss, _ = rows_objective([(logits, None, rows.rows)], 1.0)
        e = oracle.enumerate_spans(table)
        return loss, oracle.cross_entropy(
            e, oracle.span_bioes_log_probs(e, softmax_last(logits), T)
        )
    raise ValueError(case)


def suite_kd(trials=100, seed=0):
    rng = np.random.default_rng(seed)
    checks = []
    for case in ("1a", "1b", "2a", "2b", "3", "4"):
        worst = 0.0
        for _ in range(trials):
            loss, ce = kd_identity_case(case, rng)
            worst = max(worst, abs(loss - ce))
        checks.append(
            _check(f"case {case} factorized loss = enumerated cross-entropy ({trials})",
                   worst, MARGINAL_TOL)
        )
    checks.extend(temperature_checks(seed))
    checks.extend(stationarity_checks(seed))
    checks.append(gibbs_check(seed, trials=min(trials, 50)))
    return checks


def temperature_checks(seed=0):
    rng = np.random.default_rng(seed)
    teacher = rand_model("ner-crf", rng, n_labels=3, bits=10)
    tokens = rand_tokens(rng, 5)

    base = teacher_marginal_table("1a", teacher, tokens, TemperatureConfig(1.0, "local"))
    plain = chain_crf.pairwise_marginals(teacher.lattice(teacher.prepare(tokens)))
    glob1 = teacher_marginal_table("1a", teacher, tokens, TemperatureConfig(1.0, "global"))
    ident = max(
        np.abs(base.pairwise - plain.pairwise).max(),
        np.abs(base.unary - plain.unary).max(),
        np.abs(glob1.pairwise - plain.pairwise).max(),
    )

    loc2 = teacher_marginal_table("1a", teacher, tokens, TemperatureConfig(2.0, "local"))
    glo2 = teacher_marginal_table("1a", teacher, tokens, TemperatureConfig(2.0, "global"))
    diff = np.abs(loc2.pairwise - glo2.pairwise).max()

    argmax_ok = True
    for t in (1.0, 2.0, 3.0, 4.0, 5.0):
        loc = teacher_marginal_table("1a", teacher, tokens, TemperatureConfig(t, "local"))
        argmax_ok &= np.array_equal(
            np.argmax(loc.unary, axis=1), np.argmax(plain.unary, axis=1)
        )
        argmax_ok &= np.array_equal(
            loc.pairwise.reshape(loc.pairwise.shape[0], -1).argmax(axis=1),
            plain.pairwise.reshape(plain.pairwise.shape[0], -1).argmax(axis=1),
        )

    hot = teacher_marginal_table("1a", teacher, tokens, TemperatureConfig(1e6, "local"))
    L = hot.unary.shape[1]
    flat = max(
        np.abs(hot.unary - 1.0 / L).max(), np.abs(hot.pairwise - 1.0 / L**2).max()
    )

    return [
        _check("temperature T=1 is the identity (both modes)", ident, 1e-12),
        Check("local and global modes differ at T=2", diff > 1e-6, f"max diff {diff:.3e}"),
        Check("local temperature preserves per-site argmax (T=1..5)", bool(argmax_ok), "argmax"),
        _check("local T=1e6 tends to uniform", flat, 1e-4),
    ]


def stationarity_checks(seed=0):
    rng = np.random.default_rng(seed)
    # case 1a: teacher == student chain
    lat = rand_lattice(rng, 5, 3)
    table = chain_crf.pairwise_marginals(lat)
    loss, g = lattice_objective(lat, None, table, 1.0)
    gnorm = np.sqrt(
        (g.emissions**2).sum() + (g.transitions**2).sum() + (g.start**2).sum() + (g.stop**2).sum()
    )
    ent = oracle.entropy(oracle.enumerate_chain(lat))
    # case 1b: teacher == student head parser
    n, R = 4, 2
    arc = rng.uniform(-2, 2, (n, n + 1)) + self_mask(n)
    rel = rng.uniform(-2, 2, (n, R))
    d = ArcDistributions(softmax_last(arc), softmax_last(rel))
    sets = [(arc, None, d.head_rows), (rel, None, d.rel_rows)]
    loss_h, (d_arc, d_rel) = rows_objective(sets, 1.0)
    gnorm_h = np.sqrt((d_arc**2).sum() + (d_rel**2).sum())
    e = _heads_enum_from_rows(d)
    ent_h = oracle.entropy(e)
    return [
        _check("1a self-distillation gradient norm", gnorm, STATIONARY_TOL),
        _check("1a self-distillation loss = teacher entropy", abs(loss - ent), STATIONARY_TOL),
        _check("1b self-distillation gradient norm", gnorm_h, STATIONARY_TOL),
        _check("1b self-distillation loss = teacher entropy", abs(loss_h - ent_h), STATIONARY_TOL),
    ]


def gibbs_check(seed=0, trials=50):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n, L = int(rng.integers(1, 6)), int(rng.integers(2, 4))
        t_lat = rand_lattice(rng, n, L)
        s_lat = rand_lattice(rng, n, L)
        table = chain_crf.pairwise_marginals(t_lat)
        loss, _ = lattice_objective(s_lat, None, table, 1.0)
        self_loss, _ = lattice_objective(t_lat, None, table, 1.0)
        worst = max(worst, self_loss - loss)  # cross-entropy >= entropy
    return _check("chain KD loss >= teacher entropy (Gibbs)", worst, STATIONARY_TOL)


# ---------------------------------------------------------------------------
# Gradient suite (central finite differences)


def finite_diff(build_loss, params, rng, n_weights=50, eps=1e-5, tol=GRAD_TOL):
    """Worst relative error between analytic gradients and central
    differences over `n_weights` parameters with nonzero gradient, plus the
    first such parameter of every array, plus one random direction per
    array, so that no array goes unchecked and a gradient that is never
    accumulated fails.  Directional derivatives that are both below
    FLAT_DIRECTION count as exact (a bias the loss does not depend on)."""
    _, grads = build_loss()
    candidates, firsts = [], []
    for a, g in zip(params, grads):
        flat = np.flatnonzero(np.abs(g.ravel()) > 1e-12)
        if flat.size:
            firsts.append(len(candidates))
        candidates.extend((a, g, int(i)) for i in flat)
    if len(candidates) > n_weights:
        picks = rng.choice(len(candidates), size=n_weights, replace=False)
        candidates = [candidates[i] for i in sorted(set(picks.tolist()) | set(firsts))]
    worst = 0.0
    for arr, g, idx in candidates:
        orig = arr.ravel()[idx]
        arr.ravel()[idx] = orig + eps
        up, _ = build_loss()
        arr.ravel()[idx] = orig - eps
        down, _ = build_loss()
        arr.ravel()[idx] = orig
        fd = (up - down) / (2 * eps)
        an = g.ravel()[idx]
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-10))
    directions = np.random.default_rng(0)  # leaves `rng` and so the picks above as they were
    for arr, g in zip(params, grads):
        v = directions.normal(size=arr.shape)
        orig = arr.copy()
        arr += eps * v
        up, _ = build_loss()
        arr[...] = orig - eps * v
        down, _ = build_loss()
        arr[...] = orig
        fd, an = (up - down) / (2 * eps), float((g * v).sum())
        if max(abs(fd), abs(an)) > FLAT_DIRECTION:
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an)))
    return worst


def _rand_gold(model, n, rng):
    if model.gold_type is TagSequence:
        return TagSequence(tuple(int(t) for t in rng.integers(len(model.tags), size=n)))
    if model.gold_type is HeadAssignment:
        heads = tuple(
            int(rng.choice(oracle.head_candidates(n, i))) for i in range(1, n + 1)
        )
        rels = tuple(int(r) for r in rng.integers(len(model.rels), size=n))
        return HeadAssignment(heads, rels)
    spans = []
    pos = 1
    while pos <= n:
        if rng.random() < 0.4:
            end = min(n, pos + int(rng.integers(0, 2)))
            spans.append((pos, end, int(rng.integers(len(model.types)))))
            pos = end + 1
        else:
            pos += 1
    return SpanSet(frozenset(spans))


def pipeline_fd(case, rng, lam=0.7, n_weights=50):
    """Finite-difference check of one case's full student objective
    (lambda * KD + (1 - lambda) * target) through hashed features."""
    kd = distill.CASES[case]
    n = int(rng.integers(2, 5))
    tokens = rand_tokens(rng, n)
    teacher = rand_model(kd.teacher_family, rng)
    student = rand_model(kd.student_family, rng)
    if case == "4":
        # the BIOES student's label space must match the span teacher's
        student = MaxEntTagger(teacher.codec.tags, bits=12)
        _randomize(student, rng)
    table = teacher_marginal_table(case, teacher, tokens, TemperatureConfig(2.0, "local"))
    prep = student.prepare(tokens)
    gold = _rand_gold(student, n, rng)

    def build_loss():
        grads = student.new_grads()
        loss = student.objective(prep, gold, table, lam, grads, 1.0)
        return loss, grads.values()

    return finite_diff(build_loss, student.params.values(), rng, n_weights=n_weights)


def suite_grad(seed=0, n_weights=50):
    rng = np.random.default_rng(seed)
    checks = []

    # chain NLL at the lattice level
    lat = rand_lattice(rng, 5, 3)
    gold = TagSequence(tuple(int(t) for t in rng.integers(3, size=5)))

    def chain_loss():
        loss, g = lattice_objective(lat, gold, None, 0.0)
        return loss, [g.emissions, g.transitions, g.start, g.stop]

    params = [lat.emissions, lat.transitions, lat.start, lat.stop]
    checks.append(
        _check("chain NLL lattice gradient", finite_diff(chain_loss, params, rng, n_weights), GRAD_TOL)
    )

    # the chain KD loss at the lattice level
    t_lat = rand_lattice(rng, 4, 3)
    table = chain_crf.pairwise_marginals(t_lat)
    s_lat = rand_lattice(rng, 4, 3)

    def kdg_loss():
        loss, g = lattice_objective(s_lat, None, table, 1.0)
        return loss, [g.emissions, g.transitions, g.start, g.stop]

    params = [s_lat.emissions, s_lat.transitions, s_lat.start, s_lat.stop]
    checks.append(
        _check("chain KD loss lattice gradient", finite_diff(kdg_loss, params, rng, n_weights), GRAD_TOL)
    )

    # the local KD loss at the logits level
    rows = TokenDistributions(softmax_last(rng.uniform(-2, 2, (4, 3))))
    logits = rng.uniform(-2, 2, (4, 3))

    def kdl_loss():
        return rows_objective([(logits, None, rows.rows)], 1.0)

    checks.append(
        _check("local KD loss logits gradient", finite_diff(kdl_loss, [logits], rng, n_weights), GRAD_TOL)
    )

    # MaxEnt NLL through hashed features
    m = rand_model("ner-maxent", rng)
    tokens = rand_tokens(rng, 4)
    prep = m.prepare(tokens)
    mgold = _rand_gold(m, 4, rng)

    def maxent_loss():
        g = m.new_grads()
        loss = m.objective(prep, mgold, None, 0.0, g)
        return loss, g.values()

    checks.append(
        _check(
            "maxent NLL feature gradient",
            finite_diff(maxent_loss, m.params.values(), rng, n_weights),
            GRAD_TOL,
        )
    )

    # teacher-family NLLs through features (span model, second-order parser)
    sp = rand_model("ner-span", rng)
    tokens = rand_tokens(rng, 4)
    sprep = sp.prepare(tokens)
    sgold = _rand_gold(sp, 4, rng)

    def span_loss():
        g = sp.new_grads()
        loss = sp.objective(sprep, sgold, None, 0.0, g)
        return loss, g.values()

    checks.append(
        _check(
            "span NER NLL feature gradient",
            finite_diff(span_loss, sp.params.values(), rng, n_weights),
            GRAD_TOL,
        )
    )

    p2 = rand_model("dep-2nd", rng)
    tokens = rand_tokens(rng, 4)
    pprep = p2.prepare(tokens)
    pgold = _rand_gold(p2, 4, rng)

    def second_loss():
        g = p2.new_grads()
        loss = p2.objective(pprep, pgold, None, 0.0, g)
        return loss, g.values()

    checks.append(
        _check(
            "second-order parser NLL gradient (through mean field)",
            finite_diff(second_loss, p2.params.values(), rng, n_weights),
            GRAD_TOL,
        )
    )

    for case in ("1a", "1b", "2a", "2b", "3", "4"):
        checks.append(
            _check(
                f"case {case} end-to-end objective gradient",
                pipeline_fd(case, rng, n_weights=n_weights),
                GRAD_TOL,
            )
        )
    return checks


SUITES = {
    "chain": suite_chain,
    "spans": suite_spans,
    "heads": suite_heads,
    "kd": suite_kd,
    "grad": suite_grad,
}


def run_suites(names, seed=0, trials=100):
    checks = []
    for name in names:
        fn = SUITES[name]
        if name == "grad":
            checks.extend(fn(seed=seed))
        else:
            checks.extend(fn(trials=trials, seed=seed))
    return checks
