"""The four workloads: seeded inputs, the plyap call, output and accuracy checks.

Inputs are made from the seed with the standard library's random module.
Timed ops are drawn in cycles: each cycle visits each of the `strata` equal
parts of the input range once, with a seeded value inside the part.  A cycle
visits the parts in bit-reversed order XOR a seeded mask (a digitally shifted
van der Corput sequence), so any first 2^k ops of a cycle cover the 2^k equal
parts of the range once each.  Medians over a run's ops then hardly depend on
how many ops it completed, and accurate_frac is counted over such a prefix.
A traced run pairs each traced op with an untraced twin: a distinct input
drawn from the same part of the range, so the two halves cost the same.
"""

import json
import math
import os
import random
from dataclasses import dataclass

LN2 = math.log(2.0)


@dataclass(frozen=True)
class Op:
    """One timed or warm-up call: its label and the workload-specific input."""

    label: str
    value: object = None


def _rng(seed, workload, stream):
    return random.Random(f"{workload}:{seed}:{stream}")


def _bit_reverse(j, bits):
    return int(format(j, f"0{bits}b")[::-1], 2) if bits else 0


class Workload:
    name = ""
    strata = 1  # a power of two
    scaled = True  # op times are put on calibrate.py's reference speed

    def __init__(self, seed, tiny, work_dir):
        self.work_dir = work_dir
        self._warm = _rng(seed, self.name, "warm")
        self._timed = _rng(seed, self.name, "timed")
        self._masks = []

    def _stratum(self, i):
        """The part of the input range that timed op i draws from."""
        bits = self.strata.bit_length() - 1
        c, j = divmod(i, self.strata)
        while len(self._masks) <= c:
            self._masks.append(self._timed.getrandbits(bits) if bits else 0)
        return _bit_reverse(j, bits) ^ self._masks[c]

    def warm_op(self, k):
        return Op(f"w{k}")

    def timed_op(self, i, twin=False):
        """Input of timed op i (or of its twin), or None once distinct inputs run out."""
        return Op(self._label(i, twin))

    @staticmethod
    def _label(i, twin):
        return f"{i}t" if twin else str(i)

    def prepare(self, op):
        """Untimed work before the call (writing an input file)."""

    def call(self, runner, op, out_dir):
        """The plyap call; returns the ExperimentResults it produced."""
        raise NotImplementedError

    def expected_rows(self, result, op):
        return result.config.steps + 1

    def accurate(self, result, op):
        raise NotImplementedError

    def extra_outputs(self, out_dir):
        return []

    def cleanup(self, op):
        pass


class BakerGrid(Workload):
    """Cell-averaged baker transfer on a 2^m x 2^m grid with a seeded slab width."""

    name = "baker_grid"
    scaled = False
    strata = 16  # slab widths of 1..16 cells: [2^-10, 2^-6] at m = 10

    def __init__(self, seed, tiny, work_dir):
        super().__init__(seed, tiny, work_dir)
        self.grid_m = 6 if tiny else 10
        self.steps = 8 if tiny else 20

    def _config(self, label, cells):
        from plyap.runner import ExperimentConfig

        return ExperimentConfig(
            id=f"baker-{label}", system="baker_classical", grid_m=self.grid_m,
            steps=self.steps, init_width=cells / 2**self.grid_m,
        )

    def warm_op(self, k):
        return Op(f"w{k}", self._warm.randint(1, self.strata))

    def timed_op(self, i, twin=False):
        return Op(self._label(i, twin), self._stratum(i) + 1)

    def call(self, runner, op, out_dir):
        return [runner.run(self._config(op.label, op.value), out_dir=out_dir)]

    def accurate(self, result, op):
        lam = result.summary["lambda"]
        return lam is not None and abs(lam - LN2) <= 0.10 * LN2


class QbakerSweep(Workload):
    """Dense quantized baker (fig2a packet) at a distinct seeded even N per op."""

    name = "qbaker_sweep"
    scaled = False
    strata = 64  # equal parts of the even N in [lo, hi)

    def __init__(self, seed, tiny, work_dir):
        super().__init__(seed, tiny, work_dir)
        self.lo, self.hi = (64, 320) if tiny else (1024, 2048)
        self.per = (self.hi - self.lo) // (2 * self.strata)
        self._values = []
        for s in range(self.strata):
            values = [self.lo + 2 * (s * self.per + j) for j in range(self.per)]
            self._timed.shuffle(values)
            self._values.append(values)

    def warm_op(self, k):
        # N = hi is never a timed input, and every warm-up costs the same
        return Op(f"w{k}", self.hi)

    def timed_op(self, i, twin=False):
        """Cycle c takes the c-th seeded value of each part and its twin the
        (c + per/2)-th, so every N is distinct."""
        c = i // self.strata
        if c >= self.per // 2:
            return None
        return Op(self._label(i, twin), self._values[self._stratum(i)][c + twin * self.per // 2])

    def call(self, runner, op, out_dir):
        from plyap.runner import ExperimentConfig

        n = op.value
        cfg = ExperimentConfig(
            id=f"qbaker-{op.label}-n{n}", system="bvs_baker", n_dim=n,
            q0=1.0 / 3.0, p0=2.0 / 3.0, alpha=1.0 / (2.0 * math.pi * n),
            steps=12, dt=2.0, theta=0.1, window=(0.0, None),
        )
        return [runner.run(cfg, out_dir=out_dir)]

    def accurate(self, result, op):
        lam = result.summary["lambda"]
        return lam is not None and 0.29 <= lam <= 0.40


class FigureBundle(Workload):
    """figure("fig1a") then figure("fig1b"): closed-form series, writers and SVG."""

    name = "figure_bundle"
    figures = ("fig1a", "fig1b")

    def call(self, runner, op, out_dir):
        results = []
        for fig_id in self.figures:
            results.extend(runner.figure(fig_id, out_dir))
        return results

    def extra_outputs(self, out_dir):
        return [os.path.join(out_dir, f"{fig_id}.svg") for fig_id in self.figures]

    def accurate(self, result, op):
        cfg = result.config
        lam = result.summary["lambda"]
        if lam is None:
            return False
        if cfg.system == "linear":
            target, rel = math.log(cfg.r) / 2.0, 0.01
        elif cfg.system == "barrier":
            target, rel = cfg.omega / 2.0, 0.02
        else:
            return abs(lam) < cfg.stable_threshold
        return abs(lam - target) <= rel * target


class IngestCsv(Workload):
    """ingest() of a seeded overlap CSV: exponential decay onto a noisy plateau."""

    name = "ingest_csv"
    strata = 64  # equal parts of lambda_ref in [0.1, 1]
    plateau = 0.005

    def __init__(self, seed, tiny, work_dir):
        super().__init__(seed, tiny, work_dir)
        self.rows = 400 if tiny else 20_000
        self.dt = 200.0 / self.rows

    def _op(self, label, rng, lo, hi):
        lam = lo + (hi - lo) * rng.random()
        return Op(label, (lam, rng.getrandbits(32)))

    def warm_op(self, k):
        return self._op(f"w{k}", self._warm, 0.1, 1.0)

    def timed_op(self, i, twin=False):
        s = self._stratum(i)
        width = 0.9 / self.strata
        return self._op(self._label(i, twin), self._timed, 0.1 + s * width, 0.1 + (s + 1) * width)

    def _path(self, op):
        return os.path.join(self.work_dir, f"overlap-{op.label}.csv")

    def prepare(self, op):
        lam, noise_seed = op.value
        noise = random.Random(noise_seed)
        lines = ["t,overlap"]
        for k in range(self.rows):
            t = k * self.dt
            floor = self.plateau * (1.0 + 0.5 * noise.uniform(-1.0, 1.0))
            lines.append(f"{t!r},{max(math.exp(-lam * t), floor)!r}")
        with open(self._path(op), "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def call(self, runner, op, out_dir):
        return [runner.ingest(self._path(op), out_dir=out_dir)]

    def expected_rows(self, result, op):
        return self.rows

    def accurate(self, result, op):
        lam = result.summary["lambda"]
        return lam is not None and abs(lam - op.value[0]) <= 0.05 * op.value[0]

    def cleanup(self, op):
        os.remove(self._path(op))


WORKLOADS = {w.name: w for w in (BakerGrid, QbakerSweep, FigureBundle, IngestCsv)}


def check_outputs(workload, op, results, out_dir):
    """Reason the op's outputs are wrong, or None when every check passes."""
    from plyap import PlyapError
    from plyap.runner import validate_summary

    for res in results:
        exp_dir = res.out_dir
        if exp_dir is None:
            return f"{res.config.id}: no output directory"
        try:
            with open(os.path.join(exp_dir, "summary.json")) as fh:
                summary = json.load(fh)
            validate_summary(summary)
        except (OSError, ValueError, PlyapError) as exc:
            return f"{res.config.id}: summary.json: {exc}"
        header = f"# config_hash={summary['config_hash']}\n"
        for name in ("distance.csv", "divergence.csv", "lambda_t.csv"):
            path = os.path.join(exp_dir, name)
            try:
                with open(path) as fh:
                    first = fh.readline()
                    if name == "distance.csv":
                        fh.readline()
                        rows = [line.split(",") for line in fh]
            except OSError:
                return f"{res.config.id}: {name} missing"
            if first != header:
                return f"{res.config.id}: {name} lacks its config_hash header"
        want = workload.expected_rows(res, op)
        if len(rows) != want:
            return f"{res.config.id}: distance.csv has {len(rows)} rows, expected {want}"
        try:
            if any(not 0.0 <= float(row[1]) <= math.pi for row in rows):
                return f"{res.config.id}: a distance lies outside [0, pi]"
        except (IndexError, ValueError):
            return f"{res.config.id}: distance.csv has a malformed row"
    for path in workload.extra_outputs(out_dir):
        if not os.path.isfile(path):
            return f"{os.path.basename(path)} missing"
    return None
