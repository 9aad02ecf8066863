"""The four benchmark workloads.

Each workload draws its inputs from ``matkit.bench.Prng`` (inside the timed
set-up), computes its reference results once with oracles that sit outside
the timed set-up, runs one *pass* (a fixed sequence of public matkit calls,
each result stored under the call's name) and checks every stored result.

matkit is reached through module attributes at call time
(``mk.idioms.zigzag_scan``), never through names bound at import, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
from typing import Callable, Dict, List, Tuple

import numpy as np

Outputs = Dict[str, object]


def _same(a, ref: np.ndarray) -> bool:
    """Bit-for-bit equality of a NumArray with a column-major reference."""
    v = a.view()
    return v.shape == ref.shape and bool(np.array_equal(v, ref, equal_nan=True))


def _close(a, ref: np.ndarray, tol: float) -> bool:
    v = a.view()
    if v.shape != ref.shape:
        return False
    return v.size == 0 or float(np.max(np.abs(v - ref))) <= tol


class Workload:
    """One seeded call sequence with its oracles and per-call checks."""

    name: str
    item: str

    def items_per_pass(self, inputs) -> int:
        raise NotImplementedError

    def inputs(self, mk, seed: int):
        raise NotImplementedError

    def oracles(self, mk, inputs):
        raise NotImplementedError

    def run_pass(self, mk, inputs, out: Outputs) -> None:
        raise NotImplementedError

    def checks(self, inputs, oracle) -> Dict[str, Callable[[object], bool]]:
        raise NotImplementedError

    def check(self, inputs, oracle, out: Outputs) -> Tuple[int, List[str]]:
        """(calls attempted, names of failed calls) for one pass's outputs."""
        checks = self.checks(inputs, oracle)
        failed = [name for name, result in out.items() if not checks[name](result)]
        return len(out), failed


# -- idioms-vec -----------------------------------------------------------------

class IdiomsVec(Workload):
    """Vectorized idioms: scans, distances, conditional replacement, kNN."""

    name = "idioms-vec"
    item = "idiom call"

    def items_per_pass(self, inputs) -> int:
        return 7

    def inputs(self, mk, seed):
        rng = mk.bench.Prng(seed)
        x = rng.normal((1000, 1000))
        holes = rng.randint(1, x.numel, (1, x.numel // 100))
        buf = x.buf.copy()
        buf[holes.buf.astype(np.int64) - 1] = np.nan
        return {
            "m": rng.randint(1, 100, (512, 512)),
            "p": rng.uniform((300, 5)),
            "x": mk.NumArray(x.dims, buf),
            "a": rng.normal((2000, 5)),
            "b": rng.normal((500, 5)),
        }

    def oracles(self, mk, inputs):
        idioms = mk.idioms
        m, x = inputs["m"], inputs["x"].view()
        a, b = inputs["a"].view(), inputs["b"].view()
        dist = np.empty((a.shape[0], b.shape[0]))
        for j in range(b.shape[0]):
            dist[:, j] = np.sqrt(((a - b[j]) ** 2).sum(axis=1))
        nearest = np.argmin(dist, axis=1)
        return {
            "zigzag_scan": idioms.zigzag_scan(m, "loop").view().copy(),
            "boustrophedon_scan": idioms.boustrophedon_scan(m, "loop").view().copy(),
            "linear_scan": idioms.linear_scan(m, "loop").view().copy(),
            "distance": idioms.distance_matrix(inputs["p"], "loop3").view().copy(),
            "replace_neg_nan": np.where(np.isnan(x) | (x < 0), 0.0, x),
            "nn_index": (nearest + 1.0).reshape(-1, 1),
            "nn_dist": dist[np.arange(a.shape[0]), nearest].reshape(-1, 1),
        }

    def run_pass(self, mk, inputs, out):
        idioms = mk.idioms
        m, p = inputs["m"], inputs["p"]
        out["zigzag_scan"] = idioms.zigzag_scan(m)
        out["boustrophedon_scan"] = idioms.boustrophedon_scan(m)
        out["linear_scan"] = idioms.linear_scan(m)
        out["distance/rowBroadcast"] = idioms.distance_matrix(p, "rowBroadcast")
        out["distance/fullBroadcast"] = idioms.distance_matrix(p, "fullBroadcast")
        out["replace_neg_nan"] = idioms.replace_neg_nan(inputs["x"])
        out["nearest_neighbor"] = idioms.nearest_neighbor(
            inputs["a"], inputs["b"], idioms.metric_euclidean
        )

    def checks(self, inputs, oracle):
        def nearest(result):
            idx, dist = result
            return _same(idx, oracle["nn_index"]) and _close(dist, oracle["nn_dist"], 1e-9)

        return {
            "zigzag_scan": lambda r: _same(r, oracle["zigzag_scan"]),
            "boustrophedon_scan": lambda r: _same(r, oracle["boustrophedon_scan"]),
            "linear_scan": lambda r: _same(r, oracle["linear_scan"]),
            "distance/rowBroadcast": lambda r: _close(r, oracle["distance"], 1e-9),
            "distance/fullBroadcast": lambda r: _close(r, oracle["distance"], 1e-9),
            "replace_neg_nan": lambda r: _same(r, oracle["replace_neg_nan"]),
            "nearest_neighbor": nearest,
        }


# -- image-pipeline ---------------------------------------------------------------

# (format, height, width): one binary and one ASCII colour image. The sizes
# keep the ASCII decode and the 8x8 block transforms each under about two
# thirds of a pass.
_IMAGES = (("P6", 144, 144), ("P3", 128, 128))
_BLOCK = 8


def _ppm_bytes(kind: str, pixels: np.ndarray) -> bytes:
    h, w, _ = pixels.shape
    header = b"%s\n%d %d\n255\n" % (kind.encode(), w, h)
    raster = np.ascontiguousarray(pixels).astype(np.uint8)
    if kind == "P6":
        return header + raster.tobytes()
    rows = (" ".join(map(str, row.ravel().tolist())) for row in raster)
    return header + "\n".join(rows).encode() + b"\n"


def _quantize(gray: np.ndarray) -> np.ndarray:
    # the rounding `matkit img gray` applies: half away from zero, clamped
    return np.clip(np.floor(gray + 0.5), 0.0, 255.0)


def _dct_basis(n: int) -> np.ndarray:
    i, j = np.mgrid[0:n, 0:n]
    t = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * j + 1) * i / (2.0 * n))
    t[0, :] = 1.0 / np.sqrt(n)
    return t


def _block_dct(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    h, w = x.shape
    n = t.shape[0]
    tiles = x.reshape(h // n, n, w // n, n)
    return np.einsum("ij,ajbk,lk->aibl", t, tiles, t).reshape(h, w)


class ImagePipeline(Workload):
    """`img gray` then `img dct` on in-memory PNM bytes, plus the inverse DCT."""

    name = "image-pipeline"
    item = "pixel"

    def items_per_pass(self, inputs) -> int:
        return sum(h * w for _, h, w in _IMAGES)

    def inputs(self, mk, seed):
        rng = mk.bench.Prng(seed)
        pixels = [rng.randint(0, 255, (h, w, 3)) for _, h, w in _IMAGES]
        streams = [_ppm_bytes(kind, p.view()) for (kind, _, _), p in zip(_IMAGES, pixels)]
        return {"pixels": pixels, "streams": streams}

    def oracles(self, mk, inputs):
        t = _dct_basis(_BLOCK)
        images = []
        for (_, h, w), pixels in zip(_IMAGES, inputs["pixels"]):
            gray = mk.idioms.rgb2gray_loop(pixels).view().copy()
            q = _quantize(gray)
            images.append({
                "pixels": pixels.view().copy(),
                "gray": gray,
                "quantized": q,
                "p5": b"P5\n%d %d\n255\n" % (w, h) + q.astype(np.uint8).tobytes(),
                "dct": _block_dct(q, t),
            })
        return {"dctmtx": t, "images": images}

    def run_pass(self, mk, inputs, out):
        pnm, idioms = mk.pnm, mk.idioms
        t = mk.linalg.dctmtx(_BLOCK)
        out["dctmtx"] = t
        block = (_BLOCK, _BLOCK)
        for k, stream in enumerate(inputs["streams"]):
            img = pnm.decode_pnm(stream)
            out[f"{k}/decode"] = img
            gray = idioms.rgb2gray(img.pixels)
            out[f"{k}/rgb2gray"] = gray
            q = mk.core.wrap_ndarray(_quantize(gray.view()))
            out[f"{k}/quantize"] = q
            p5 = pnm.encode_pnm(pnm.Image(pixels=q))
            out[f"{k}/encode_p5"] = p5
            back = pnm.decode_pnm(p5)
            out[f"{k}/decode_p5"] = back
            coeffs = idioms.blockproc(back.pixels, block, lambda blk: idioms.dct2d(blk, t))
            out[f"{k}/dct"] = coeffs
            out[f"{k}/idct"] = idioms.blockproc(coeffs, block, lambda blk: idioms.idct2d(blk, t))

    def checks(self, inputs, oracle):
        checks = {"dctmtx": lambda r: _close(r, oracle["dctmtx"], 1e-15)}
        for k, o in enumerate(oracle["images"]):
            checks.update({
                f"{k}/decode": lambda r, o=o: _same(r.pixels, o["pixels"]),
                f"{k}/rgb2gray": lambda r, o=o: _same(r, o["gray"]),
                f"{k}/quantize": lambda r, o=o: _same(r, o["quantized"]),
                f"{k}/encode_p5": lambda r, o=o: r == o["p5"],
                f"{k}/decode_p5": lambda r, o=o: _same(r.pixels, o["quantized"]),
                f"{k}/dct": lambda r, o=o: _close(r, o["dct"], 1e-9),
                f"{k}/idct": lambda r, o=o: _close(r, o["quantized"], 1e-9),
            })
        return checks


# -- linalg-pca -----------------------------------------------------------------

_PCA_DIMS = (40, 80)
_PCA_SAMPLES = 400
_SOLVE_N = 300
_MATMUL_N = 200


class LinalgPca(Workload):
    """Jacobi PCA at two sizes, an LU solve and a dense product."""

    name = "linalg-pca"
    item = "solved problem"

    def items_per_pass(self, inputs) -> int:
        return len(_PCA_DIMS) + 2

    def inputs(self, mk, seed):
        rng = mk.bench.Prng(seed)
        wrap = mk.core.wrap_ndarray
        inp = {}
        for d in _PCA_DIMS:
            # unequal spreads per coordinate, so the covariance has a real spectrum
            scale = np.linspace(0.5, 2.0, d).reshape(-1, 1)
            inp[f"pca{d}"] = wrap(rng.normal((d, _PCA_SAMPLES)).view() * scale)
        a = rng.normal((_SOLVE_N, _SOLVE_N)).view()
        a = a + np.diag(np.abs(a).sum(axis=1) + 1.0)  # strictly diagonally dominant
        inp["A"] = wrap(a)
        inp["b"] = rng.normal((_SOLVE_N, 1))
        inp["M1"] = rng.normal((_MATMUL_N, _MATMUL_N))
        inp["M2"] = rng.normal((_MATMUL_N, _MATMUL_N))
        return inp

    def oracles(self, mk, inputs):
        import scipy.linalg

        oracle = {}
        for d in _PCA_DIMS:
            x = inputs[f"pca{d}"].view()
            s = np.cov(x)
            oracle[f"pca{d}"] = (x - x.mean(axis=1, keepdims=True), s, scipy.linalg.eigh(s)[0])
        a, b = inputs["A"].view(), inputs["b"].view()
        oracle["mldivide"] = scipy.linalg.solve(a, b)
        oracle["matmul"] = inputs["M1"].view() @ inputs["M2"].view()
        return oracle

    def run_pass(self, mk, inputs, out):
        idioms, linalg = mk.idioms, mk.linalg
        for d in _PCA_DIMS:
            out[f"pca{d}"] = idioms.pca(inputs[f"pca{d}"])
        out["mldivide"] = linalg.mldivide(inputs["A"], inputs["b"])
        out["matmul"] = linalg.matmul(inputs["M1"], inputs["M2"])

    def checks(self, inputs, oracle):
        def pca(d):
            centered, s_ref, values = oracle[f"pca{d}"]
            norm = float(np.abs(s_ref).sum(axis=1).max())

            def check(result):
                y, p, s = result
                pv = p.view()
                if pv.shape != (d, d) or not _close(s, s_ref, 1e-9 * norm):
                    return False
                rayleigh = np.diag(pv.T @ s_ref @ pv)
                residual = s_ref @ pv - pv * rayleigh
                return (
                    float(np.max(np.abs(rayleigh - values))) <= 1e-9 * norm
                    and float(np.max(np.abs(residual))) <= 1e-9 * norm
                    and float(np.max(np.abs(pv.T @ pv - np.eye(d)))) <= 1e-12
                    and _close(y, pv.T @ centered, 1e-9 * max(1.0, float(np.abs(centered).max())))
                )

            return check

        a, b = inputs["A"].view(), inputs["b"].view()
        x_ref, c_ref = oracle["mldivide"], oracle["matmul"]
        a_norm = float(np.abs(a).sum(axis=1).max())

        def solve(x):
            xv = x.view()
            if xv.shape != x_ref.shape:
                return False
            scale = float(np.abs(x_ref).max())
            residual = float(np.abs(a @ xv - b).max())
            return (
                residual <= 1e-9 * a_norm * scale
                and float(np.abs(xv - x_ref).max()) <= 1e-9 * scale
            )

        checks = {f"pca{d}": pca(d) for d in _PCA_DIMS}
        checks["mldivide"] = solve
        checks["matmul"] = lambda r: _close(r, c_ref, 1e-9 * float(np.abs(c_ref).max()))
        return checks


# -- verify-suite -----------------------------------------------------------------

_SCENARIOS = (
    "vector-add", "dot-product", "mean-above-50", "boustrophedon", "zigzag",
    "distance", "grayscale",
)
_CSV_HEADER = "scenario,variant,n,reps,total_seconds,seconds_per_rep,checksum"


def _csv_checksums(text: str) -> Dict[str, Dict[str, str]]:
    """scenario -> variant -> checksum field; the timing fields are ignored."""
    lines = text.splitlines()
    if not lines or lines[0] != _CSV_HEADER:
        return {}
    table: Dict[str, Dict[str, str]] = {}
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) == 7:
            table.setdefault(fields[0], {})[fields[1]] = fields[6]
    return table


class VerifySuite(Workload):
    """The headline command, `matkit --seed S bench run`, run in process.

    Its own gate compares every variant with the scalar reference before
    timing; here a scenario passes when the command exits 0, the scenario's
    rows are present and their checksums equal the warm-up pass's.
    """

    name = "verify-suite"
    item = "verified scenario"

    def items_per_pass(self, inputs) -> int:
        return len(_SCENARIOS)

    def inputs(self, mk, seed):
        return {"argv": ["--seed", str(seed), "bench", "run"]}

    def oracles(self, mk, inputs):
        return {"checksums": None}  # filled from the warm-up pass

    def run_pass(self, mk, inputs, out):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = mk.cli.main(list(inputs["argv"]))
        out["bench run"] = (rc, stdout.getvalue())

    def check(self, inputs, oracle, out):
        if "bench run" not in out:
            return 0, []
        rc, text = out["bench run"]
        table = _csv_checksums(text)
        if oracle["checksums"] is None and rc == 0:
            oracle["checksums"] = table
        expected = oracle["checksums"] or {}
        failed = [
            s for s in _SCENARIOS
            if rc != 0 or not table.get(s) or table.get(s) != expected.get(s)
        ]
        return len(_SCENARIOS), failed


WORKLOADS = {w.name: w for w in (IdiomsVec(), ImagePipeline(), LinalgPca(), VerifySuite())}
