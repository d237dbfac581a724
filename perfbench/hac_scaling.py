"""Wall time and peak memory of one average-linkage ``clustereval.hac`` call
(KnownK stop) against the number of tracks.

Run from the repository root:

    python3 perfbench/hac_scaling.py 500 1000 1500 2000

The vectors are the temporal averages of a synthetic video with ten
identities and tracks of 5 to 120 frames, the shape (tracks x 32) the
cluster-long-video workload clusters.  Each size runs in its own process,
so the reported peak RSS is that size's own.  2000 tracks need about 2 GB.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def measure(tracks: int) -> None:
    sys.path.insert(0, str(SRC))
    import numpy as np

    from trackcentre import SyntheticSpec, generate_synthetic, temporal_average
    from trackcentre.clustereval import KnownK, hac

    video = generate_synthetic(SyntheticSpec(
        identity_count=10, tracks_per_identity=tracks // 10, max_length=120, seed=0))
    reps = np.stack([temporal_average(t) for t in video.tracks])
    t0 = time.perf_counter()
    hac(reps, linkage="average", stop=KnownK(10))
    wall = time.perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{len(reps)} tracks: hac {wall:.3f} s, peak RSS {rss:.0f} MB", flush=True)


def main(argv) -> int:
    if argv[:1] == ["--one"]:
        measure(int(argv[1]))
        return 0
    for size in argv or ["500", "1000", "1500", "2000"]:
        subprocess.run([sys.executable, __file__, "--one", size], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
