"""Correctness of one sweep's CSV: every point against a reference or an
exact oracle, the manifest's summaries against the rows, and the bytes
against the golden file at the golden seed.

A point fails if its estimate is missing or NaN, its standard error does not
match its estimate, a deterministic column differs from the reference, or
its outage count lies outside the tolerance around the reference:

    |n p - n p_ref| <= Z * sqrt(n p_ref (1 - p_ref) + (n se_ref)^2) + SLACK

with n the point's trials and se_ref the reference's standard error (0 for
the exact oracle).  SLACK counts keep points with a handful of expected
outages from failing on Poisson tails.
"""

from __future__ import annotations

import math

import numpy as np

Z = 6.0
SLACK = 3.0


def parse_csv(text: str):
    """(manifest dict, column names, rows as dicts of strings)."""
    manifest, lines = {}, text.splitlines()
    while lines and lines[0].startswith("#"):
        key, sep, value = lines.pop(0)[1:].strip().partition(" = ")
        if sep:
            manifest[key] = value
    columns = lines.pop(0).split(",") if lines else []
    return manifest, columns, [dict(zip(columns, ln.split(","))) for ln in lines]


def golden_mismatch_lines(text: str, golden: str) -> int:
    """Lines that differ by position, plus any difference in line count."""
    a, b = text.splitlines(), golden.splitlines()
    return sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring a Taylor series (small matrices)."""
    norm = float(np.abs(a).sum(axis=1).max())
    s = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0 else 0
    b = a / 2.0 ** s
    result = term = np.eye(len(a))
    for k in range(1, 20):
        term = term @ b / k
        result = result + term
    for _ in range(s):
        result = result @ result
    return result


def vector_corr_outage(c: np.ndarray, tau: float) -> float:
    """Exact P(||C H v||^2 < tau) for iid CN(0, 1) H and unit-norm v.

    H v is CN(0, I), so the gain is sum_i mu_i Exp(1) with mu the
    eigenvalues of C C^T: a hypoexponential, i.e. phase-type with initial
    vector e1 and bidiagonal sub-generator T.  Its CDF 1 - e1' exp(T tau) 1
    stays exact when the mu_i repeat (r = 0 gives Erlang(M)), where the
    partial-fraction form cancels catastrophically.
    """
    rates = 1.0 / np.sort(np.linalg.eigvalsh(c @ c.T))
    t = np.diag(-rates) + np.diag(rates[:-1], 1)
    return 1.0 - float(_expm(t * tau)[0].sum())


def exponential_correlation(m: int, r: float) -> np.ndarray:
    """C[i, j] = r^|i-j|, built here so the oracle does not use coopbeam."""
    idx = np.arange(m)
    return float(r) ** np.abs(idx[:, None] - idx[None, :])


def exact_outage(manifest: dict, row: dict) -> float:
    """Exact outage of one vector-gain corr-sweep row."""
    p_total, alpha = float(manifest["p_total"]), float(manifest["alpha"])
    sigma_n2 = p_total / 10.0 ** (float(row["snr_db"]) / 10.0)
    tau = (2.0 ** float(manifest["r_tr"]) - 1.0) * sigma_n2 / (
        p_total - alpha * p_total)
    c = exponential_correlation(int(manifest["m"]), float(row["corr_r"]))
    return vector_corr_outage(c, tau)


def _count_ok(p: float, n: int, p_ref: float, se_ref: float) -> bool:
    var = n * p_ref * (1.0 - p_ref) + (n * se_ref) ** 2
    return abs(n * p - n * p_ref) <= Z * math.sqrt(var) + SLACK


def _estimate_problem(p: float, se: float, n: int):
    if not (math.isfinite(p) and math.isfinite(se) and 0.0 <= p <= 1.0):
        return f"estimate p={p} se={se} missing or out of range"
    # p and se are printed to 10 significant digits; compare through the count
    count = round(p * n)
    if not math.isclose(p, count / n, rel_tol=1e-9):
        return f"p={p} is not a count over n={n}"
    if not math.isclose(se, math.sqrt(count * (n - count)) / n ** 1.5,
                        rel_tol=1e-8, abs_tol=1e-15):
        return f"std_err {se} does not match p={p}, n={n}"
    return None


class SweepCheck:
    """Checks of one sweep's CSV against a reference CSV, or, without one,
    against the corr-sweep oracle."""

    def __init__(self, reference_text=None):
        self.reference = None
        if reference_text is not None:
            _, _, rows = parse_csv(reference_text)
            self.reference = {self._key(r): r for r in rows}

    @staticmethod
    def _key(row):
        return (float(row["snr_db"]),
                row.get("series_id") or float(row.get("alpha", "nan")))

    def run(self, text: str, seed: int, trials: int):
        """Returns (points, failed points, problems)."""
        manifest, _, rows = parse_csv(text)
        problems = []
        if manifest.get("rows") != str(len(rows)):
            problems.append(f"manifest rows {manifest.get('rows')} != "
                            f"{len(rows)} data rows")
        if (manifest.get("trials"), manifest.get("master_seed")) != (
                str(trials), str(seed)):
            problems.append("manifest trials/master_seed differ from argv")
        check = self._oracle_point if self.reference is None else \
            self._reference_point
        failed = 0
        for row in rows:
            problem = check(row, manifest, trials)
            if problem:
                failed += 1
                problems.append(f"point {row}: {problem}")
        problems += self._summary_problems(manifest, rows)
        return len(rows), failed, problems

    def _reference_point(self, row, manifest, n):
        ref = self.reference.get(self._key(row))
        if ref is None:
            return "no reference point"
        p_col = "p_out_mc" if "p_out_mc" in row else "p_out"
        for col in ("k", "feasible"):
            if row.get(col) != ref.get(col):
                return f"{col} {row.get(col)} != reference {ref.get(col)}"
        if "p_out_analytical" in row and not math.isclose(
                float(row["p_out_analytical"]),
                float(ref["p_out_analytical"]), rel_tol=1e-12, abs_tol=1e-15):
            return "analytical bound differs from reference"
        p, se = float(row[p_col]), float(row["std_err"])
        problem = _estimate_problem(p, se, n)
        if problem:
            return problem
        if not _count_ok(p, n, float(ref[p_col]), float(ref["std_err"])):
            return f"p={p} outside tolerance of reference {ref[p_col]}"
        return None

    def _oracle_point(self, row, manifest, n):
        c = exponential_correlation(int(manifest["m"]), float(row["corr_r"]))
        off = c - np.diag(np.diag(c))
        level = np.linalg.norm(off) / np.linalg.norm(np.diag(c))
        if not math.isclose(float(row["rho_level"]), level, rel_tol=1e-9,
                            abs_tol=1e-12):
            return f"rho_level {row['rho_level']} != {level}"
        p, se = float(row["p_out"]), float(row["std_err"])
        problem = _estimate_problem(p, se, n)
        if problem:
            return problem
        exact = exact_outage(manifest, row)
        if not _count_ok(p, n, exact, 0.0):
            return f"p={p} outside tolerance of exact {exact:.6g}"
        return None

    @staticmethod
    def _summary_problems(manifest, rows):
        """alpha* per SNR and series crossovers, recomputed from the rows."""
        problems = []
        for key, value in manifest.items():
            if key.startswith("alpha_star[snr_db="):
                snr = float(key[len("alpha_star[snr_db="):-1])
                group = [r for r in rows if float(r["snr_db"]) == snr
                         and r["feasible"] == "1"]
                best = min(group, key=lambda r: (float(r["p_out_mc"]),
                                                 float(r["alpha"])))
                want = (f"{best['alpha']} (k={best['k']}, "
                        f"p_out_mc={best['p_out_mc']})")
                if value != want:
                    problems.append(f"{key} = {value}, rows give {want}")
            elif key.startswith("crossover["):
                a, _, b = key[len("crossover["):-1].partition(" vs ")
                series = {}
                for r in rows:
                    series.setdefault(r["series_id"], []).append(
                        (float(r["snr_db"]), float(r["p_out"])))
                got = [] if value == "none" else [float(x) for x in
                                                  value.split(",")]
                want = _crossovers(series[a], series[b])
                if len(got) != len(want) or any(
                        abs(x - y) > 1e-6 for x, y in zip(got, want)):
                    problems.append(f"{key} = {value}, rows give {want}")
        return problems


def _crossovers(a, b):
    """SNRs where curve a - curve b changes sign, linearly interpolated."""
    snrs = [s for s, _ in a]
    d = [pa - pb for (_, pa), (_, pb) in zip(a, b)]
    found = []
    for i in range(len(d) - 1):
        if d[i] == 0.0:
            found.append(snrs[i])
        elif (d[i] < 0) != (d[i + 1] < 0) and d[i + 1] != 0.0:
            found.append(snrs[i] + d[i] / (d[i] - d[i + 1])
                         * (snrs[i + 1] - snrs[i]))
    if d and d[-1] == 0.0:
        found.append(snrs[-1])
    return found
