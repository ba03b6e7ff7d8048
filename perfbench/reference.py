"""Reference outputs that a faster program must still produce, and how to remake them.

`reference.json` holds, for each listed workload seed:

* `revenue_at_5.transfer`   - Revenue@5 of operation 0 on `transfer`
                              (pipeline seed 1000 x workload seed), as float hex;
* `revenue_at_5.score_bulk` - Revenue@5 of the fixed model on `score_bulk`;
                              every operation of a run scores the same test rows
                              with the same model, so every operation must match;
* `export_inertia`          - within-class k-means inertia of operation 0 on `export`
                              (k-means seed 1000 x workload seed).

Every value is compared only in the numeric environment the file was made
in (Python, numpy, BLAS build and kernel, numpy SIMD targets): another build
rounds differently, and training (of the transfer models, of score_bulk's
fixed model and of export's fixed encoder) amplifies the difference.
Elsewhere, and for a seed the file does not list, the run says that it did
not compare. Revenue must match bit for bit. Export inertia may exceed its
reference by at most `INERTIA_TOLERANCE`: it repeats exactly at the commit
that made the file, while one export's inertia spreads about 1 % over
k-means seeds and k-means with one restart instead of ten is 2-5 % worse.

A change that moves these values on purpose remakes the file and says so:

    python3 perfbench/reference.py --seeds 0-63
"""

from __future__ import annotations

import ctypes
import glob
import json
import platform
import sys
import tempfile
from pathlib import Path

PATH = Path(__file__).resolve().with_name("reference.json")
INERTIA_TOLERANCE = 0.02  # share by which op 0 of an export may cluster worse than the reference


def openblas(function: str, restype):
    """Call `openblas_<function>` in the OpenBLAS numpy loaded; None if it cannot be found."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (f"scipy_openblas_{function}64_", f"openblas_{function}64_",
                       f"openblas_{function}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = restype
                return fn()
    return None


def numeric_environment() -> str:
    """What decides the rounding of every float the workloads compute."""
    import numpy
    from numpy._core import _multiarray_umath as umath

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = openblas("get_corename", ctypes.c_char_p)
    simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"{blas.get('name')} {blas.get('version')} kernel {core.decode() if core else '?'}, "
            f"simd {' '.join(umath.__cpu_baseline__ + simd)}")


class Reference:
    """The reference values of one workload seed."""

    def __init__(self, seed: int):
        data = json.loads(PATH.read_text(encoding="utf-8"))
        self.seed = seed
        self.same_environment = data["environment"] == numeric_environment()
        self._values = dict(data["revenue_at_5"], export=data["export_inertia"])

    def _value(self, workload: str) -> str | float | None:
        if not self.same_environment:
            return None
        return self._values[workload].get(str(self.seed))

    def revenue(self, workload: str) -> float | None:
        """The Revenue@5 this seed must give, or None when it cannot be compared."""
        value = self._value(workload)
        return None if value is None else float.fromhex(value)

    def inertia_limit(self) -> float | None:
        """The largest export inertia op 0 may have, or None when it cannot be compared."""
        value = self._value("export")
        return None if value is None else value * (1 + INERTIA_TOLERANCE)

    def note(self, workload: str) -> str:
        if str(self.seed) not in self._values[workload]:
            return f"seed {self.seed} not in reference.json: not compared"
        if not self.same_environment:
            return "reference.json was made in another numeric environment: not compared"
        return "compared with reference.json"


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    import argparse

    import run  # pins BLAS threads before numpy loads

    parser = argparse.ArgumentParser(description="Remake reference.json from the current program.")
    parser.add_argument("--seeds", default="0-63", help="workload seeds, as N or N-M")
    args = parser.parse_args()
    sys.path.insert(0, str(run.ROOT / "src"))
    from workloads import WORKLOADS

    out = {"environment": numeric_environment(),
           "revenue_at_5": {"transfer": {}, "score_bulk": {}}, "export_inertia": {}}
    run.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR, prefix="tmp-") as tmp:
        for seed in _seeds(args.seeds):
            for name in ("transfer", "score_bulk", "export"):
                wl = WORKLOADS[name](seed, run.ROOT, Path(tmp) / f"{name}{seed}", compare=False)
                try:
                    wl.prepare()
                    wl.setup()
                    res = wl.op(0)
                    wl.check(res)
                finally:
                    wl.close()
                if res.failures:
                    print(f"{name} seed {seed}: {res.failures}", file=sys.stderr)
                    return 1
                if name == "export":
                    out["export_inertia"][str(seed)] = res.out["inertia"]
                else:
                    out["revenue_at_5"][name][str(seed)] = res.out["revenue"].hex()
                print(f"{name} seed {seed}: {res.out.get('revenue', res.out.get('inertia'))}",
                      file=sys.stderr, flush=True)
    PATH.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
