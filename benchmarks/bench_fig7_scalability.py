"""Fig. 7 — scalability of PinSQL's computing time.

Regenerates the paper's two scalability sweeps: computing time as a
function of (a) the number of SQL templates and (b) the anomaly-period
length.

Paper reference (Fig. 7): even the slowest cases stay under a minute;
the running time correlates with the anomaly-period length, and shows no
clear relationship with the template count.
"""

import numpy as np

from repro.core import PinSQL
from repro.evaluation import CorpusConfig, generate_case
from repro.timeseries import pearson
from repro.workload import AnomalyCategory

from benchmarks.conftest import write_report


def _measure(cfg: CorpusConfig, seed: int) -> tuple[int, int, float]:
    labeled = generate_case(seed, cfg, category=AnomalyCategory.ROW_LOCK)
    elapsed = PinSQL().analyze(labeled.case).timings.total
    # The analysed window is the whole collected period [ts, te); the
    # detected anomaly sub-window wobbles and is not the size driver.
    return len(labeled.case.sql_ids), labeled.case.duration, elapsed


def test_fig7_scalability(benchmark):
    # Sweep (a): template count grows, anomaly length held constant.
    template_points = []
    for i, n_biz in enumerate((4, 8, 16, 28)):
        cfg = CorpusConfig(
            delta_start_s=600,
            anomaly_length_s=(300, 301),
            n_businesses=(n_biz, n_biz),
            cpu_cores_choices=(16,),
        )
        template_points.append(_measure(cfg, seed=900 + i))

    # Sweep (b): anomaly length grows, template count held constant.
    length_points = []
    for i, length in enumerate((300, 600, 1200, 2400)):
        cfg = CorpusConfig(
            delta_start_s=600,
            anomaly_length_s=(length, length + 1),
            n_businesses=(8, 8),
            cpu_cores_choices=(16,),
        )
        length_points.append(_measure(cfg, seed=950 + i))

    lines = ["Fig. 7 — PinSQL computing time", "", "(a) varying number of templates"]
    lines.append(f"{'#templates':>12} {'window_s':>10} {'time_s':>8}")
    for n, dur, t in template_points:
        lines.append(f"{n:>12} {dur:>10} {t:>8.2f}")
    lines += ["", "(b) varying anomaly-period length"]
    lines.append(f"{'#templates':>12} {'window_s':>10} {'time_s':>8}")
    for n, dur, t in length_points:
        lines.append(f"{n:>12} {dur:>10} {t:>8.2f}")
    write_report("fig7_scalability", "\n".join(lines))

    # Shape checks against the paper's Fig. 7.
    times = [t for _, _, t in template_points + length_points]
    assert max(times) < 60.0  # even the slowest case stays under a minute
    lengths = np.array([dur for _, dur, _ in length_points], dtype=float)
    length_times = np.array([t for _, _, t in length_points])
    assert pearson(lengths, length_times) > 0.7  # grows with anomaly length
    assert length_times[-1] > length_times[0]

    cfg = CorpusConfig(delta_start_s=600, anomaly_length_s=(300, 301),
                       n_businesses=(8, 8), cpu_cores_choices=(16,))
    labeled = generate_case(999, cfg, category=AnomalyCategory.ROW_LOCK)
    benchmark(lambda: PinSQL().analyze(labeled.case))
