"""Pins short training runs (urban, 6g-dense, wasserstein urban) and their
evaluation, an evaluation and the genie-LRT kernels over several row blocks,
the adaptive wardens, the genie-LRT baseline and the rows of every sweep to
recorded values.

The acceptance determinism gate replays a run within one process, so it
cannot see a change that reorders the random draws; these literals can.
A change that alters the draw order on purpose must re-record them and
say so.
"""

import math

import numpy as np
import pytest

from covertsim.adversarial import TrainConfig, adaptive_warden_loop, train
from covertsim.channel import ChannelConfig
from covertsim.detection import LrtWarden, calibrate_threshold, monte_carlo_roc
from covertsim.evaluation import evaluate_system, lrt_detection_for_signals, run_sweeps
from covertsim.numerics import RngStream
from covertsim.scenarios import get_preset

REL = 1e-9


def test_urban_seed0_numbers_are_pinned():
    cfg = TrainConfig(iterations=4, batch=16, disc_warmup=2, snapshot_every=2,
                      snapshot_trials=128)
    system, log = train(cfg, get_preset("urban"), RngStream(0))
    report = evaluate_system(system, 300, RngStream(0, 7))

    assert log.gen_loss == pytest.approx(
        [0.35573979818977586, 0.5747989474229611, 0.5658726802288667,
         0.8528320016689909], rel=REL)
    assert log.covert_loss == pytest.approx(
        [-0.7140495900992709, -0.7222773043907471, -0.6981154883305636,
         -0.6814507154212258], rel=REL)
    assert log.decode_mse == pytest.approx(
        [1.0697893882890468, 1.2970762518137082, 1.2639881685594303,
         1.5342827170902167], rel=REL)
    assert [v for row in log.disc_loss for v in row] == pytest.approx(
        [-1.4013819047704255, -1.3975289662430503, -1.3874474325242951,
         -1.4207420611182187, -1.450871329403403, -1.3894425589493191,
         -1.3791349875505554, -1.4040179174766303, -1.4192671795684417,
         -1.3645813453282007, -1.3036711703874246, -1.4608069647379085], rel=REL)
    assert log.covert_metric == pytest.approx(
        [0.5052134104625609, 0.5075506956232623, 0.4973900980884333,
         0.4897915794135064], rel=REL)

    snaps = [(s["iteration"], s["csr"], s["ber"], *s["pd_learned"]) for s in log.snapshots]
    assert snaps == [
        (0, 0.5859375, 0.5009765625, 0.203125, 0.1015625, 0.1953125),
        (2, 0.59375, 0.5087890625, 0.21875, 0.109375, 0.1171875),
        (4, 0.6015625, 0.505859375, 0.2109375, 0.1015625, 0.1484375),
    ]

    assert report.csr == pytest.approx(0.6366666666666667, rel=REL)
    assert report.ber == pytest.approx(0.47875, rel=REL)
    per_warden = [v for w in report.per_warden for v in (w.pd, w.pf, w.pd_lrt)]
    assert per_warden == pytest.approx(
        [0.15333333333333332, 0.1, 0.9961925997925837,
         0.09333333333333334, 0.1, 0.9751325706236774,
         0.15666666666666668, 0.1, 0.9239061034631607], rel=REL)


def _short_run(preset, loss_mode):
    cfg = TrainConfig(iterations=4, batch=16, disc_warmup=2, snapshot_every=2,
                      snapshot_trials=128, loss_mode=loss_mode)
    system, log = train(cfg, get_preset(preset), RngStream(0))
    return log, evaluate_system(system, 300, RngStream(0, 7))


def test_6g_dense_seed0_numbers_are_pinned():
    # five correlated wardens: the widest stack and the shared-fading tap draw
    log, report = _short_run("6g-dense", "standard")
    assert log.gen_loss == pytest.approx(
        [0.5072513632789131, 0.5804907665500445, 0.5934489488197944,
         0.6141388346189879], rel=REL)
    assert log.covert_loss == pytest.approx(
        [-0.6791660853719685, -0.6689387839138616, -0.6742366094089961,
         -0.6496798991408949], rel=REL)
    assert log.decode_mse == pytest.approx(
        [1.1864174486508816, 1.2494295504639061, 1.2676855582287905,
         1.2638187337598827], rel=REL)
    assert [v for row in log.disc_loss for v in row] == pytest.approx(
        [-1.4679308315073665, -1.3615760672625146, -1.3657296836991404,
         -1.4787241633174746, -1.4033849632174782, -1.349629459186095,
         -1.427086851235641, -1.4268811587476342, -1.3406666439183716,
         -1.395690000722513, -1.3919457485967055, -1.4232481318126462,
         -1.4015504631011257, -1.429117398571107, -1.3678398358194461,
         -1.3977561260382463, -1.3964894073300904, -1.3848299830211137,
         -1.354333966123781, -1.3698647753331807], rel=REL)
    assert log.covert_metric == pytest.approx(
        [0.48573332963465143, 0.48181669139468053, 0.4851706422305576,
         0.47373324661868865], rel=REL)

    snaps = [(s["iteration"], s["csr"], s["ber"], *s["pd_learned"]) for s in log.snapshots]
    assert snaps == [
        (0, 0.421875, 0.51171875, 0.15625, 0.1171875, 0.1640625, 0.125, 0.25),
        (2, 0.4609375, 0.48046875, 0.1953125, 0.1171875, 0.1640625, 0.09375, 0.2109375),
        (4, 0.375, 0.494140625, 0.1484375, 0.109375, 0.203125, 0.1640625, 0.2109375),
    ]

    assert report.csr == pytest.approx(0.43666666666666665, rel=REL)
    assert report.ber == pytest.approx(0.4766666666666667, rel=REL)
    per_warden = [v for w in report.per_warden for v in (w.pd, w.pf, w.pd_lrt)]
    assert per_warden == pytest.approx(
        [0.14333333333333334, 0.1, 0.9807982935343666,
         0.09333333333333334, 0.1, 0.9744993596095499,
         0.17333333333333334, 0.1, 0.9775195498724744,
         0.17, 0.1, 0.9803369988577209,
         0.19333333333333333, 0.1, 0.9806082201968123], rel=REL)


def test_urban_wasserstein_seed0_numbers_are_pinned():
    # linear critics with weight clipping after every step
    log, report = _short_run("urban", "wasserstein")
    assert log.gen_loss == pytest.approx(
        [1.073982508044798, 1.301230961686668, 1.2697189381122445,
         1.5401958174508878], rel=REL)
    assert log.covert_loss == pytest.approx(
        [0.004193119755751276, 0.0042614800896444765, 0.00588833375671798,
         0.005711138025927374], rel=REL)
    assert log.decode_mse == pytest.approx(
        [1.0697893882890468, 1.2969694815970234, 1.2638306043555265,
         1.5344846794249605], rel=REL)
    assert [v for row in log.disc_loss for v in row] == pytest.approx(
        [0.0002927131280694578, 0.0004269196894855962, -0.0003632947157469245,
         -0.00021575635506685482, 0.0009049977455009846, -9.68725273992662e-05,
         0.0012422098486789732, 0.0010601736159651914, -0.0009753928655533315,
         0.0006952094763189212, 0.0015513998986817863, 0.0008622569906499046], rel=REL)
    assert log.covert_metric == pytest.approx(
        [-0.004193119755751277, -0.0042614800896444765, -0.00588833375671798,
         -0.005711138025927375], rel=REL)

    snaps = [(s["iteration"], s["csr"], s["ber"], *s["pd_learned"]) for s in log.snapshots]
    assert snaps == [
        (0, 0.453125, 0.5009765625, 0.3125, 0.2265625, 0.15625),
        (2, 0.5390625, 0.5087890625, 0.2890625, 0.1484375, 0.140625),
        (4, 0.5625, 0.505859375, 0.2734375, 0.171875, 0.125),
    ]

    assert report.csr == pytest.approx(0.56, rel=REL)
    assert report.ber == pytest.approx(0.4791666666666667, rel=REL)
    per_warden = [v for w in report.per_warden for v in (w.pd, w.pf, w.pd_lrt)]
    assert per_warden == pytest.approx(
        [0.24, 0.1, 0.9961993832119522,
         0.15666666666666668, 0.1, 0.9752058325013282,
         0.16, 0.1, 0.9240536123076678], rel=REL)


def test_urban_evaluation_over_several_row_blocks_is_pinned():
    # 2,500 trials: one draw chunk, whose generator, H1 and decoder forwards
    # span four 512-row blocks, the last with the remainder; the 10,000 H0
    # rows are four chunks of nineteen blocks in all
    cfg = TrainConfig(iterations=4, batch=16, disc_warmup=2, snapshot_every=0)
    system, _ = train(cfg, get_preset("urban"), RngStream(0))
    report = evaluate_system(system, 2500, RngStream(0, 7))
    assert report.csr == pytest.approx(0.6268, rel=REL)
    assert report.ber == pytest.approx(0.49585, rel=REL)
    assert report.mean_signal_energy == pytest.approx(3.5020295366201344, rel=REL)
    per_warden = [v for w in report.per_warden for v in (w.pd, w.pf, w.pd_lrt)]
    assert per_warden == pytest.approx(
        [0.1884, 0.1, 0.994158701907218,
         0.1232, 0.1, 0.9735515131935135,
         0.126, 0.1, 0.9138761754822686], rel=REL)


def test_urban_adaptive_wardens_are_pinned():
    # retraining at iterations 3 and 6 replays a window shorter than the buffer
    cfg = TrainConfig(iterations=4, batch=16, disc_warmup=2, snapshot_every=0)
    system, _ = train(cfg, get_preset("urban"), RngStream(0))
    metric = adaptive_warden_loop(system, RngStream(0, 60), period=3, window=8, total=8,
                                  batch=4, retrain_steps=5)
    assert metric.tolist() == pytest.approx(
        [0.5, 0.5, 0.5, 0.4959701707200603, 0.4954427773365169, 0.49528722180750134,
         0.4896017794473777, 0.4846218638427509], rel=REL)


@pytest.mark.parametrize("target_pf,pds", [
    (0.1, [0.7497366089601402, 0.7520723415076029, 0.7472220563351074,
           0.7503425316512371, 0.7630563592865178]),
    (0.05, [0.6428283298778733, 0.6486302473922844, 0.6394142370752941,
            0.6452969332135552, 0.658749036825069]),
])
def test_6g_dense_lrt_baseline_is_pinned(target_pf, pds):
    gen = RngStream(5).generator()
    s = 0.1 * (gen.standard_normal((300, 32)) + 1j * gen.standard_normal((300, 32)))
    assert lrt_detection_for_signals(s, get_preset("6g-dense"), RngStream(9),
                                     target_pf=target_pf) == pytest.approx(pds, rel=REL)


def test_blocked_lrt_kernels_are_pinned():
    # 2,500 rows: the channel and statistics run in four row blocks
    gen = RngStream(5).generator()
    s = 0.1 * (gen.standard_normal((2500, 32)) + 1j * gen.standard_normal((2500, 32)))
    assert lrt_detection_for_signals(s, get_preset("urban"), RngStream(9)) == pytest.approx(
        [0.8955481866374917, 0.7498457595819237, 0.5721538984193812], rel=REL)
    x = 0.3 * np.ones(8, dtype=complex)
    warden = LrtWarden(x, 1.0, calibrate_threshold(x, 1.0, 0.1))
    report = monte_carlo_roc(warden, ChannelConfig(), x, 2500, RngStream(3))
    assert (report.pd, report.pf) == pytest.approx((0.8364, 0.2536), rel=REL)


TINY_TRAIN = TrainConfig(iterations=4, batch=16, disc_warmup=2, snapshot_every=2,
                         snapshot_trials=128)

# every sweep at seed 0, TINY_TRAIN, the default generator and 200 trials;
# rows are (method, scenario, K, metric, x, value, stderr)
SWEEP_ROWS = {
    "pd-vs-k": [
        ("proposed", "custom", 2, "mean_pd", 2, 0.2, 0.028284271247461905),
        ("proposed-lrt", "custom", 2, "mean_pd", 2, 0.9929917899230072, 0.0),
        ("noise-injection", "custom", 2, "mean_pd", 2, 0.9997066180268499, 0.0),
        ("proposed", "custom", 3, "mean_pd", 3, 0.24666666666666667, 0.03048132397241155),
        ("proposed-lrt", "custom", 3, "mean_pd", 3, 0.9964851172830705, 0.0),
        ("noise-injection", "custom", 3, "mean_pd", 3, 0.999261797999289, 0.0),
        ("proposed", "custom", 4, "mean_pd", 4, 0.20125, 0.02835034722009591),
        ("proposed-lrt", "custom", 4, "mean_pd", 4, 0.9845756158077174, 0.0),
        ("noise-injection", "custom", 4, "mean_pd", 4, 0.9994823644090938, 0.0),
        ("proposed", "custom", 5, "mean_pd", 5, 0.16299999999999998, 0.02611809717418173),
        ("proposed-lrt", "custom", 5, "mean_pd", 5, 0.9793567356765955, 0.0),
        ("noise-injection", "custom", 5, "mean_pd", 5, 0.9991962026154315, 0.0),
    ],
    "ber-vs-snr": [
        ("proposed", "urban", 3, "ber", 0, 0.5075, 0.012498593670889537),
        ("proposed", "urban", 3, "ber", 5, 0.485, 0.012494373733805148),
        ("proposed", "urban", 3, "ber", 10, 0.5075, 0.012498593670889537),
        ("proposed", "urban", 3, "ber", 15, 0.505625, 0.012499208959345188),
        ("proposed", "urban", 3, "ber", 20, 0.49125, 0.012498085790932147),
        ("noise-injection", "urban", 3, "ber", 0, 0.245625, 0.010761428790331469),
        ("noise-injection", "urban", 3, "ber", 5, 0.16, 0.00916515138991168),
        ("noise-injection", "urban", 3, "ber", 10, 0.085625, 0.0069952376378058095),
        ("noise-injection", "urban", 3, "ber", 15, 0.04375, 0.005113458803735491),
        ("noise-injection", "urban", 3, "ber", 20, 0.02375, 0.00380673231755268),
    ],
    "csr-vs-epochs": [
        ("proposed", "urban", 3, "csr", 0, 0.609375, 0.04312383235511644),
        ("proposed", "urban", 3, "csr", 2, 0.5234375, 0.0441455939542801),
        ("proposed", "urban", 3, "csr", 4, 0.53125, 0.04410777261967271),
    ],
    "pd-distribution": [
        ("proposed", "6g-dense", 5, "pd", 0, 0.175, 0.026867731575255845),
        ("proposed", "6g-dense", 5, "pd", 1, 0.185, 0.027456784225396828),
        ("proposed", "6g-dense", 5, "pd", 2, 0.145, 0.02489728900904675),
        ("proposed", "6g-dense", 5, "pd", 3, 0.085, 0.01971991379291502),
        ("proposed", "6g-dense", 5, "pd", 4, 0.17, 0.02656124997058685),
        ("noise-injection", "6g-dense", 5, "pd", 0, 0.9988037946871665, 0.0),
        ("noise-injection", "6g-dense", 5, "pd", 1, 0.9987291529827825, 0.0),
        ("noise-injection", "6g-dense", 5, "pd", 2, 0.9996998994116533, 0.0),
        ("noise-injection", "6g-dense", 5, "pd", 3, 0.9990954647700027, 0.0),
        ("noise-injection", "6g-dense", 5, "pd", 4, 0.9996522807217749, 0.0),
        ("proposed-lrt", "6g-dense", 5, "pd", 0, 0.9735879081647297, 0.0),
        ("proposed-lrt", "6g-dense", 5, "pd", 1, 0.9836881104926567, 0.0),
        ("proposed-lrt", "6g-dense", 5, "pd", 2, 0.9770191873151738, 0.0),
        ("proposed-lrt", "6g-dense", 5, "pd", 3, 0.9863717146232318, 0.0),
        ("proposed-lrt", "6g-dense", 5, "pd", 4, 0.9846042299921659, 0.0),
    ],
    "ber-vs-layers": [
        ("proposed", "urban", 3, "ber", 3, 0.520625, 0.012489360706592432),
        ("proposed", "urban", 3, "ber", 5, 0.519375, 0.012490611708774515),
        ("proposed", "urban", 3, "ber", 8, 0.483125, 0.012492878830933045),
        ("proposed", "urban", 3, "ber", 10, 0.48125, 0.012491207845420715),
    ],
}


@pytest.mark.parametrize("name", sorted(SWEEP_ROWS))
def test_sweep_rows_are_pinned(name):
    points = run_sweeps(name, TINY_TRAIN, RngStream(0), trials=200)
    expected = SWEEP_ROWS[name]
    assert [(p.method, p.scenario, p.k, p.metric, p.x) for p in points] == \
        [row[:5] for row in expected]
    assert [v for p in points for v in (p.value, p.stderr)] == pytest.approx(
        [v for row in expected for v in row[5:]], rel=REL)
    assert {p.seed for p in points} == {0}


def test_adaptive_sweep_rows_are_pinned():
    # 5,000 iterations of the adaptive wardens: pinned by samples and their sum
    points = run_sweeps("adaptive", TINY_TRAIN, RngStream(0), trials=200)
    assert {(p.method, p.scenario, p.k, p.metric, p.stderr, p.seed) for p in points} == {
        ("proposed", "urban", 3, "covert_metric", 0.0, 0)}
    assert [p.x for p in points] == list(range(5000))
    values = [p.value for p in points]
    assert values[::500] + values[-1:] == pytest.approx(
        [0.5, 0.5, 0.3252394558954954, 0.3062375158686098, 0.34673520481405906,
         0.3561377688506921, 0.4200284483544907, 0.09946009453234217,
         0.2001884220667586, 0.3732219299399018, 0.225391223091466], rel=REL)
    assert math.fsum(values) == pytest.approx(1615.3437440512362, rel=REL)
