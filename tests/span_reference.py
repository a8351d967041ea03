"""The span dynamic programs one table at a time, through scalar
`log_sum_exp` calls over Python lists: the reference that the length-grouped
kernels of `factorkd.span_ner` must equal bit for bit."""

import numpy as np

from factorkd.numerics import log_sum_exp, logsumexp_last


def suffix_log_partitions(scores):
    """log F(i) for i = 0..n (log F(n) = 0)."""
    n = scores.shape[0]
    log_f = np.zeros(n + 1)
    for i in range(n - 1, -1, -1):
        opts = [log_f[i + 1]]
        for j in range(i, n):
            opts.extend(scores[i, j, :] + log_f[j + 1])
        log_f[i] = log_sum_exp(opts)
    return log_f


def prefix_log_partitions(scores):
    """log B(i) for i = 0..n (log B(0) = 0)."""
    n = scores.shape[0]
    log_b = np.zeros(n + 1)
    for i in range(1, n + 1):
        opts = [log_b[i - 1]]
        for k in range(i):
            opts.extend(scores[k, i - 1, :] + log_b[k])
        log_b[i] = log_sum_exp(opts)
    return log_b


def span_marginals(scores):
    n, _, T = scores.shape
    log_b = prefix_log_partitions(scores)
    log_f = suffix_log_partitions(scores)
    log_z = log_f[0]
    out = np.zeros((n, n, T))
    for i in range(n):
        for j in range(i, n):
            out[i, j, :] = np.exp(log_b[i] + scores[i, j, :] + log_f[j + 1] - log_z)
    return out


def bioes_rows(scores):
    n, _, T = scores.shape
    log_b = prefix_log_partitions(scores)
    log_f = suffix_log_partitions(scores)
    log_z = log_f[0]
    rows = np.zeros((n, 1 + 4 * T))
    for i in range(n):
        rows[i, 0] = np.exp(log_b[i] + log_f[i + 1] - log_z)  # O
        for l in range(T):
            col = 1 + 4 * l
            if i < n - 1:  # B
                b = log_b[i] + logsumexp_last(scores[i, i + 1 :, l] + log_f[i + 2 :])
                rows[i, col + 0] = np.exp(b - log_z)
            if 0 < i < n - 1:  # I
                terms = (
                    log_b[:i, None] + scores[:i, i + 1 :, l] + log_f[None, i + 2 :]
                ).reshape(-1)
                rows[i, col + 1] = np.exp(log_sum_exp(terms) - log_z) if terms.size else 0.0
            if i > 0:  # E
                e = logsumexp_last(log_b[:i] + scores[:i, i, l]) + log_f[i + 1]
                rows[i, col + 2] = np.exp(e - log_z)
            rows[i, col + 3] = np.exp(log_b[i] + scores[i, i, l] + log_f[i + 1] - log_z)  # S
    return rows


def objective(model, prep, gold, out, coef=1.0):
    """The span model's NLL one sentence at a time: its score table filled
    site by site, log Z from the suffix DP, the marginals from a second
    pass, and the gradient scattered site by site."""
    n, block = prep
    sites = [(i, j) for i in range(n) for j in range(i, n)]
    flat = block.scores(model.params["weights"], model.params["bias"])
    scores = np.full((n, n, flat.shape[1]), -np.inf)
    for site, (i, j) in enumerate(sites):
        scores[i, j, :] = flat[site]
    log_z = float(suffix_log_partitions(scores)[0])
    d = span_marginals(scores)
    gold_score = 0.0
    for s, e, l in gold:
        gold_score += scores[s - 1, e - 1, l]
        d[s - 1, e - 1, l] -= 1.0
    block.scatter(out["weights"], out["bias"], coef * np.stack([d[i, j, :] for i, j in sites]))
    return float(log_z - gold_score)
