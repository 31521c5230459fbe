"""End-to-end benchmark of interaction_lab.

    python3 perfbench/run.py --workload {recipes,analyze,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. The program is imported from ./src, so nothing
needs installing. One run imports the package and sets up three times (set-up
time is the import time plus the median set-up), then repeats rounds of CLI
commands and library calls until --seconds have passed, finishing the round in
progress. Every workload runs every stage, so every end-to-end metric is
measured on every workload; a workload runs its own stages at full size and
the others at smoke size (FULL, SMOKE). Every timed region is measured in
the process's CPU time (clock below). Outputs are checked against
perfbench/reference.py after the timed part. The last line of stdout is one
JSON object: correct, attempted, failed and metrics (the end-to-end metrics
with --trace 0; the per-layer metrics and the tracing overhead with
--trace 1). See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from math import floor
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RECIPES = ("normal", "low", "mid", "high")
ATTACKED = ("low", "high")
THEOREM2_BANDS = ((6, 1 / 3, 5 / 6), (8, 0.25, 0.75), (10, 0.2, 0.5))
MC_ORDERS = (2, 5, 8)
MC_DRAWS = 2000
MC_MAX_OUTSIDE = 0.1
TRAIN_BASE = {"batch_size": 32, "learning_rate": 0.1, "hidden_sizes": [48, 48],
              "snapshot_every": 0}
WIDE_N, WIDE_ROWS, WIDE_PAIRS = 20, 384, 12
ANALYSIS_EPOCHS = 15
ANALYZE_SAMPLES = 128  # the CLI's default context budget
SETUP_REPEATS = 3

# Timed regions read the CPU time of the whole process: user and system time of
# every thread, the program's worker and BLAS threads included. On a shared
# host the hypervisor takes CPUs away from the guest in bursts; wall time
# counts those bursts, and CPU time does not.
clock = time.process_time

FULL = {
    "train": {"epochs": 3},
    "attack": {"steps": 50},
    "analyze": {"rows": 1, "pairs": 0},
    "analyze_exact": {"rows": 2, "pairs": 0, "samples": 252},
    "analyze_wide": {"rows": 1, "pairs": 8, "samples": 48},
    "verify": {"suite": "all"},
    "estimators": {"efficiency_games": 100, "theorem2_games": 6, "bands": 3,
                   "mc_games": 10, "sim": (12, 1000, 40)},
}
SMOKE = {
    "train": {"epochs": 1},
    "attack": {"steps": 10},
    "analyze": {"rows": 1, "pairs": 0, "orders": "1,3,5,7,9"},
    "analyze_exact": {"rows": 1, "pairs": 0, "samples": 252, "orders": "3,4,5,6,7"},
    "analyze_wide": {"rows": 1, "pairs": 8, "samples": 48, "orders": "2,4,6,8,10,12,14,16"},
    "verify": {"suite": "theorem2"},
    "estimators": {"efficiency_games": 10, "theorem2_games": 3, "bands": 1,
                   "mc_games": 3, "sim": (8, 1000, 40)},
}
# The stages each workload runs at full size.
WORKLOADS = {
    "recipes": ("train", "attack"),
    "analyze": ("analyze", "analyze_exact", "analyze_wide"),
    "oracle": ("verify", "estimators"),
}

# Timed stage -> (end-to-end metric, unit), all in CPU seconds. Each is the
# median of the run's samples: one per round, one per command for attack.
STAGE_METRICS = {
    "train": ("train_epochs_per_s", "epochs/cpu-s"),
    "attack": ("attack_row_steps_per_s", "row-steps/cpu-s"),
    "analyze": ("analyze_rows_per_s", "rows/cpu-s"),
    "analyze_exact": ("analyze_exact_rows_per_s", "rows/cpu-s"),
    "analyze_wide": ("analyze_wide_rows_per_s", "rows/cpu-s"),
    "verify": ("verify_s", "cpu-s"),
    "estimators": ("estimator_checks_s", "cpu-s"),
}


def derive(seed: int, *path: int) -> int:
    """A 31-bit seed for one input, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0] >> 1)


def read_csv_rows(path) -> list[list[str]]:
    """Data rows of a CSV written by the program: comment line and header dropped."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


class SetupError(RuntimeError):
    pass


class Bench:
    """One workload's stages, the checks they queue and the operation counts."""

    def __init__(self, il, ref, workload: str, seed: int, work: Path):
        self.il = il
        self.ref = ref
        self.seed = seed
        self.work = work
        self.sizes = {stage: (FULL if stage in WORKLOADS[workload] else SMOKE)[stage]
                      for stage in FULL}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.checks = []
        self.moments = {}
        pairs = il.datasets.bundled_dataset("pairs")
        self.pairs_data = (pairs.features, pairs.labels)

    # ------------------------------------------------------------ plumbing

    def cli(self, argv, counted: bool = True) -> tuple[float, str, bool]:
        """Run one CLI command in-process; returns (CPU seconds, stdout, succeeded)."""
        out = io.StringIO()
        start = clock()
        try:
            with contextlib.redirect_stdout(out):
                code = self.il.cli.main([str(a) for a in argv])
        except Exception as exc:  # an uncaught error is a failed operation, not a crash
            code = f"{type(exc).__name__}: {exc}"
        elapsed = clock() - start
        ok = code == 0
        if counted:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.problems.append(f"{argv[0]} exited with {code}: {' '.join(map(str, argv))}")
        elif not ok:
            raise SetupError(f"{' '.join(map(str, argv))} exited with {code}")
        return elapsed, out.getvalue(), ok

    def check(self, name: str, fn, *args) -> None:
        """Queue a correctness check; checks run after the timed rounds."""
        self.checks.append((name, fn, args))

    def run_checks(self) -> None:
        for name, fn, args in self.checks:
            self.attempted += 1
            try:
                problem = fn(*args)
            except Exception as exc:  # a crashing check is a failed check
                problem = f"{type(exc).__name__}: {exc}"
            if problem:
                self.failed += 1
                self.problems.append(f"{name}: {problem}")

    def write_config(self, path: Path, **fields) -> Path:
        path.write_text(json.dumps({**TRAIN_BASE, **fields}))
        return path

    # ------------------------------------------------------------ set-up

    def setup(self, directory: Path) -> dict:
        """Inputs every round shares: two trained analysis models and the n=20 CSV."""
        directory.mkdir(parents=True)
        il = self.il
        config = self.write_config(directory / "m12.json", epochs=ANALYSIS_EPOCHS,
                                   seed=derive(self.seed, 1), variant="normal")
        self.cli(["train", "--config", config, "--data", "bundled:pairs",
                  "--out-dir", directory / "m12"], counted=False)
        wide = il.datasets.make_pairwise_task(WIDE_ROWS, WIDE_N, WIDE_PAIRS,
                                              derive(self.seed, 2))
        il.datasets.write_dataset_csv(directory / "wide.csv", wide)
        config = self.write_config(directory / "m20.json", epochs=ANALYSIS_EPOCHS,
                                   seed=derive(self.seed, 3), variant="normal")
        self.cli(["train", "--config", config, "--data", directory / "wide.csv",
                  "--out-dir", directory / "m20"], counted=False)
        return {"m12": directory / "m12" / "model.json", "m20": directory / "m20" / "model.json",
                "wide": directory / "wide.csv"}

    # ------------------------------------------------------------ one round

    def round(self, r: int, inputs: dict) -> dict[str, list[float]]:
        """Every stage once; returns each stage's samples of its end-to-end metric."""
        rdir = self.work / f"r{r}"
        rdir.mkdir()
        rs = derive(self.seed, 100, r)
        values = {
            "train": self.stage_train(rdir, rs),
            "attack": self.stage_attack(rdir, rs),
            "analyze": self.stage_analyze("analyze", rdir, rs, inputs["m12"], "bundled:pairs"),
            "analyze_exact": self.stage_analyze("analyze_exact", rdir, rs, inputs["m12"],
                                                "bundled:pairs"),
            "analyze_wide": self.stage_analyze("analyze_wide", rdir, rs, inputs["m20"],
                                               inputs["wide"]),
            "verify": self.stage_verify(rs),
            "estimators": self.stage_estimators(rs),
        }
        self.stage_theory(rdir, rs)
        return values

    def stage_train(self, rdir: Path, rs: int) -> list[float]:
        epochs = self.sizes["train"]["epochs"]
        seconds = 0.0
        for k, variant in enumerate(RECIPES):
            config = self.write_config(rdir / f"{variant}.json", epochs=epochs,
                                       seed=derive(rs, 1, k), variant=variant)
            elapsed, _, ok = self.cli(["train", "--config", config, "--data", "bundled:pairs",
                                       "--out-dir", rdir / variant])
            seconds += elapsed
            self.check(f"train {variant} log", self.check_train_log, rdir / variant, ok)
        return [len(RECIPES) * epochs / seconds]

    def stage_attack(self, rdir: Path, rs: int) -> list[float]:
        """One sample per command: both attacked models have the same shape."""
        steps = self.sizes["attack"]["steps"]
        rates = []
        for variant in ATTACKED:
            out = rdir / f"attack_{variant}.json"
            model = rdir / variant / "model.json"
            elapsed, _, ok = self.cli(["attack", "--model", model, "--data", "bundled:pairs",
                                       "--eps", 0.3, "--steps", steps, "--step-size", 0.01,
                                       "--seed", rs, "--out", out])
            rates.append(len(self.pairs_data[1]) * steps / elapsed)
            self.check(f"attack {variant}", self.check_attack, model, out, steps, ok)
        return rates

    def stage_analyze(self, stage: str, rdir: Path, rs: int, model: Path, data) -> list[float]:
        size = self.sizes[stage]
        samples = size.get("samples", ANALYZE_SAMPLES)
        out = rdir / f"{stage}.csv"
        argv = ["analyze", "--model", model, "--data", data, "--rows", size["rows"],
                "--samples", samples, "--seed", rs, "--out", out]
        if size["pairs"]:
            argv += ["--pairs", size["pairs"]]
        if "orders" in size:
            argv += ["--orders", size["orders"]]
        elapsed, _, ok = self.cli(argv)
        self.check(f"{stage} profile", self.check_profile, model, data, out, size["rows"],
                   size["pairs"], samples, size.get("orders"), ok)
        return [size["rows"] / elapsed]

    def stage_verify(self, rs: int) -> list[float]:
        suite = self.sizes["verify"]["suite"]
        elapsed, text, ok = self.cli(["verify", "--suite", suite, "--seed", rs])
        self.check(f"verify {suite}", self.check_verify, suite, text, ok)
        return [elapsed]

    def stage_theory(self, rdir: Path, rs: int) -> None:
        n = 8 + rs % 17
        out = rdir / "theory.csv"
        _, _, ok = self.cli(["theory", "--n", n, "--seed", rs, "--out", out])
        self.check("theory curve", self.check_theory, n, out, ok)

    def stage_estimators(self, rs: int) -> list[float]:
        """The library's estimator checks on closed-form polynomial games, timed together."""
        size = self.sizes["estimators"]
        il = self.il
        rng = np.random.default_rng(derive(rs, 2))

        def polynomial(n, stream, g):
            return il.games.SyntheticGame.random_polynomial(n, n, 2 * n + 5,
                                                            seed=derive(rs, stream, g))
        start = clock()
        efficiency = []
        for g in range(size["efficiency_games"]):
            spec = polynomial(4 + g % 7, 3, g)
            efficiency.append((spec, il.interactions.efficiency_residual(
                il.games.synthetic_game(spec))))
        theorem2 = [il.modulation.verify_theorem2(n, r1, r2, num_games=size["theorem2_games"],
                                                  seed=derive(rs, 4, b))
                    for b, (n, r1, r2) in enumerate(THEOREM2_BANDS[:size["bands"]])]
        estimates = []
        for g in range(size["mc_games"]):
            spec = polynomial(12, 5, g)
            game = il.games.synthetic_game(spec)
            i, j = (int(v) for v in rng.choice(12, size=2, replace=False))
            for m in MC_ORDERS:
                exact = il.interactions.interaction_order_exact(game, i, j, m)
                mc = il.interactions.interaction_order_mc(game, i, j, m, MC_DRAWS,
                                                          seed=derive(rs, 6, g))
                estimates.append((spec, i, j, m, exact, mc))
        n, k, trials = size["sim"]
        simulated = il.theory.simulate_curve(
            il.theory.GradSimConfig(n=n, k=k, sigma=1.0, trials=trials, seed=derive(rs, 7)))
        elapsed = clock() - start
        self.check("efficiency identity", self.check_efficiency, efficiency)
        self.check("theorem 2 reconstruction", self.check_theorem2, theorem2)
        self.check("monte carlo vs enumeration", self.check_mc, estimates)
        self.check("simulated curve", self.check_simulation, n, simulated)
        return [elapsed]

    # ------------------------------------------------------------ checks
    # Each returns None when the output is right, else a one-line reason.

    def check_train_log(self, out_dir: Path, ran: bool):
        if not ran:
            return "train failed"
        model = self.ref.Model(out_dir / "model.json")
        features, labels = self.pairs_data
        ce, acc = self.ref.cross_entropy_and_accuracy(model, model.inputs(features), labels)
        last = read_csv_rows(out_dir / "train_log.csv")[-1]
        train_loss, train_acc, val_loss, val_acc = (float(v) for v in last[1:5])
        rows = len(labels)
        val = floor(0.25 * rows + 0.5)
        loss = ((rows - val) * train_loss + val * val_loss) / rows
        accuracy = ((rows - val) * train_acc + val * val_acc) / rows
        if abs(loss - ce) > 1e-9 * max(1.0, abs(ce)) or abs(accuracy - acc) > 1e-12:
            return f"logged loss/acc {loss}/{accuracy} vs full-data {ce}/{acc}"
        return None

    def check_attack(self, model_path: Path, out: Path, steps: int, ran: bool):
        if not ran:
            return "attack failed"
        result = json.loads(out.read_text())
        model = self.ref.Model(model_path)
        features, labels = self.pairs_data
        X = model.inputs(features)
        clean = 100.0 * float((model.forward(X).argmax(axis=1) == labels).mean())
        adv = self.ref.pgd_accuracy(model, X, labels, 0.3, steps, 0.01)
        if abs(result["clean_accuracy"] - clean) > 1e-9:
            return f"clean accuracy {result['clean_accuracy']} vs {clean}"
        # a gradient that is zero up to rounding may take another sign: allow one row
        if abs(result["adversarial_accuracy"] - adv) > 100.0 / len(labels) + 1e-9:
            return f"adversarial accuracy {result['adversarial_accuracy']} vs {adv}"
        if result["adversarial_accuracy"] > result["clean_accuracy"]:
            return "adversarial accuracy exceeds clean accuracy"
        return None

    def row_moments(self, model_path: Path, data, row: int):
        key = (str(model_path), str(data), row)
        if key not in self.moments:
            model = self.ref.Model(model_path)
            if data == "bundled:pairs":
                features, labels = self.pairs_data
            else:
                raw = np.array(read_csv_rows(data), dtype=float)
                features, labels = raw[:, :-1], raw[:, -1].astype(int)
            x = model.inputs(features[row])
            table = self.ref.log_odds_table(model, x, int(labels[row]))
            self.moments[key] = self.ref.pair_order_moments(table, len(x))
        return self.moments[key]

    def check_profile(self, model_path, data, out, rows, pairs, samples, orders, ran):
        if not ran:
            return "analyze failed"
        moments = [self.row_moments(model_path, data, t) for t in range(rows)]
        n = moments[0][0].shape[1] + 1
        budget = pairs if pairs else n * (n - 1) // 2
        bounds = self.ref.profile_bounds(moments, budget, samples, n)
        grid = [int(m) for m in orders.split(",")] if orders else list(range(n - 1))
        written = read_csv_rows(out)
        if [int(r[0]) for r in written] != grid:
            return f"orders {[r[0] for r in written]}"
        strengths = np.array([float(r[1]) for r in written])
        normalized = np.array([float(r[2]) for r in written])
        for m, value in zip(grid, strengths):
            expected, tolerance = bounds[m]
            if not abs(value - expected) <= tolerance:
                return f"order {m}: strength {value} vs reference {expected} +- {tolerance:.3g}"
        if not np.allclose(normalized, strengths / strengths.mean(), rtol=1e-12, atol=0):
            return "normalized column is not strength over its mean"
        return None

    def check_verify(self, suite: str, text: str, ran: bool):
        if not ran:
            return "verify failed"
        limits = {"max_relative_residual": 1e-9, "max_residual": 1e-8,
                  "max_ratio_deviation": 0.03}
        lines = text.splitlines()
        if len(lines) != {"all": 5, "theorem2": 3}.get(suite, 1):
            return f"{len(lines)} suite lines"
        for line in lines:
            fields = dict(tok.split("=", 1) for tok in line.split()[1:])
            if fields.get("status") != "ok":
                return line
            for key, limit in limits.items():
                if key in fields and not float(fields[key]) < limit:
                    return line
        return None

    def check_theory(self, n: int, out: Path, ran: bool):
        if not ran:
            return "theory failed"
        written = read_csv_rows(out)
        if [int(r[0]) for r in written] != list(range(n - 1)):
            return "wrong order grid"
        for m, f_hat in ((int(r[0]), float(r[1])) for r in written):
            expected = self.ref.learning_strength(n, m)
            if abs(f_hat - expected) > 1e-12 * expected:
                return f"f_hat({m}) = {f_hat} vs {expected}"
        return None

    def check_efficiency(self, results):
        for spec, report in results:
            full, empty, independent, per_order = self.ref.efficiency_parts(spec.terms, spec.n)
            if not report.relative_residual < 1e-9:
                return f"relative residual {report.relative_residual:.3e} at n={spec.n}"
            got = [report.lhs, report.v_empty, report.independent_sum, *report.per_order]
            want = [full, empty, independent, *per_order]
            if len(got) != len(want) or any(abs(a - b) > 1e-9 * (1 + abs(b))
                                            for a, b in zip(got, want)):
                return f"decomposition differs from the closed form at n={spec.n}"
        return None

    def check_theorem2(self, residuals):
        worst = max(residuals)
        return None if worst < 1e-8 else f"residual {worst:.3e}"

    def check_mc(self, estimates):
        outside = 0
        for spec, i, j, m, exact, mc in estimates:
            expected = self.ref.polynomial_interaction(spec.terms, spec.n, i, j, m)
            if abs(exact.value - expected) > 1e-9 * (1 + abs(expected)):
                return f"exact I_{m}({i},{j}) = {exact.value} vs closed form {expected}"
            if mc.exact or mc.samples_used != MC_DRAWS:
                return f"estimate reports exact={mc.exact} samples={mc.samples_used}"
            gap = abs(mc.value - exact.value)
            outside += gap > 3 * mc.std_error and gap > 1e-12 * (1 + abs(expected))
        # 0.27% of estimates fall outside 3 SE on average; allow 10%, and at least 2
        allowed = max(2, int(MC_MAX_OUTSIDE * len(estimates)))
        return None if outside <= allowed else f"{outside} of {len(estimates)} outside 3 SE"

    def check_simulation(self, n: int, simulated):
        for m, value in enumerate(simulated):
            ratio = value / simulated[0]
            expected = self.ref.learning_strength(n, m)
            if abs(ratio - expected) > 0.03 * expected:
                return f"order {m}: ratio {ratio} vs {expected}"
        return None

    # ------------------------------------------------------------ traced extras

    def thread_mismatch_lines(self) -> int:
        """Profile lines that differ between the default thread count and one thread.

        Inputs do not depend on the seed. The program shares one value cache
        between threads, so batch contents, and the last bits of the profile,
        depend on scheduling; the count is 0 once profiles are thread-invariant.
        """
        config = self.write_config(self.work / "fixed.json", epochs=ANALYSIS_EPOCHS, seed=0,
                                   variant="normal")
        self.cli(["train", "--config", config, "--data", "bundled:pairs",
                  "--out-dir", self.work / "fixed"], counted=False)
        texts = []
        for threads in (None, "1"):
            out = self.work / f"fixed_{threads}.csv"
            saved = os.environ.pop("INTERACTION_LAB_THREADS", None)
            if threads:
                os.environ["INTERACTION_LAB_THREADS"] = threads
            try:
                self.cli(["analyze", "--model", self.work / "fixed" / "model.json",
                          "--data", "bundled:pairs", "--rows", 2, "--out", out], counted=False)
            finally:
                os.environ.pop("INTERACTION_LAB_THREADS", None)
                if saved is not None:
                    os.environ["INTERACTION_LAB_THREADS"] = saved
            texts.append(out.read_text().splitlines())
        return sum(a != b for a, b in zip(*texts))


def median_of(rounds: list[dict], key: str) -> float:
    return statistics.median(v for r in rounds for v in r[key])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "interaction_lab" / "__init__.py").is_file():
        print(f"error: no interaction_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    start = clock()
    import interaction_lab.cli  # noqa: F401  (timed: import is part of set-up)
    import_s = clock() - start
    import interaction_lab as il
    import reference as ref
    from tracer import LAYER_METRICS, Tracer

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(il, ref, args.workload, args.seed, work)
        setups = []
        for k in range(SETUP_REPEATS):
            began = clock()
            inputs = bench.setup(work / f"setup{k}")
            setups.append(clock() - began)

        tracer = Tracer(f"{args.workload}-seed{args.seed}") if args.trace else None
        plain, traced, layers = [], [], []
        deadline = time.perf_counter() + args.seconds
        r = 0
        while True:
            tracing = tracer is not None and r % 2 == 1
            if tracing:
                tracer.run_id = f"{args.workload}-seed{args.seed}-round{r}"
                tracer.reset()
                tracer.install()
            try:
                values = bench.round(r, inputs)
            finally:
                if tracing:
                    tracer.uninstall()
            (traced if tracing else plain).append(values)
            if tracing:
                layers.append(tracer.layer_metrics())
            r += 1
            if time.perf_counter() >= deadline and (tracer is None or traced):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        bench.run_checks()

        if tracer is None:
            metrics = {"setup_s": (import_s + statistics.median(setups), "s"),
                       "peak_rss_mb": (peak_rss_mb, "MB")}
            for stage, (name, unit) in STAGE_METRICS.items():
                metrics[name] = (median_of(plain, stage), unit)
        else:
            metrics = {name: (statistics.median(layer[name] for layer in layers), unit)
                       for name, (unit, _) in LAYER_METRICS.items()}
            for stage, (name, unit) in STAGE_METRICS.items():
                base, with_tracing = median_of(plain, stage), median_of(traced, stage)
                # slowdown in percent; rates are inverted so both read as extra time
                slowdown = (base / with_tracing if "/" in unit
                            else with_tracing / base) - 1.0
                metrics[f"tracing.{name}_overhead"] = (100.0 * slowdown, "%")
            mismatch = bench.thread_mismatch_lines() if args.workload == "analyze" else 0
            metrics["parallel.thread_mismatch_lines"] = (mismatch, "count")
            out_dir = HERE / "_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in bench.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    rounds = len(plain) + len(traced)
    print(f"workload={args.workload} seed={args.seed} rounds={rounds} "
          f"attempted={bench.attempted} failed={bench.failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
