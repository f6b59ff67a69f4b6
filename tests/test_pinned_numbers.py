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
        [0.35663716209153695, 0.5799101083473981, 0.5654961946931626,
         0.8593171019791356], rel=REL)
    assert log.covert_loss == pytest.approx(
        [-0.7129201300048786, -0.722124813150445, -0.6955382977495955,
         -0.6732329405196468], rel=REL)
    assert log.decode_mse == pytest.approx(
        [1.0695572920964156, 1.302034921497843, 1.2610344924427581,
         1.5325500424987824], rel=REL)
    assert [v for row in log.disc_loss for v in row] == pytest.approx(
        [-1.4040090827763179, -1.39769897899283, -1.3878966439340434,
         -1.4202039254637666, -1.447685965308569, -1.3916074095069817,
         -1.3786014402337785, -1.4008134871163178, -1.4218920116615716,
         -1.3710057266452549, -1.3001896899325842, -1.4610242210145357], rel=REL)
    assert log.covert_metric == pytest.approx(
        [0.5047760269733446, 0.5078957070471365, 0.4961848436468235,
         0.4854022402063168], rel=REL)

    snaps = [(s["iteration"], s["csr"], s["ber"], *s["pd_learned"]) for s in log.snapshots]
    assert snaps == [
        (0, 0.59375, 0.505859375, 0.2109375, 0.0859375, 0.1796875),
        (2, 0.546875, 0.490234375, 0.203125, 0.1328125, 0.1640625),
        (4, 0.5625, 0.5361328125, 0.21875, 0.15625, 0.1328125),
    ]

    assert report.csr == pytest.approx(0.62, rel=REL)
    assert report.ber == pytest.approx(0.4791666666666667, rel=REL)
    per_warden = [v for w in report.per_warden for v in (w.pd, w.pf, w.pd_lrt)]
    assert per_warden == pytest.approx(
        [0.15333333333333332, 0.1, 0.9961784936323235,
         0.13666666666666666, 0.1, 0.9751021550488675,
         0.14, 0.1, 0.9238161752412325], rel=REL)


def _short_run(preset, loss_mode):
    cfg = TrainConfig(iterations=4, batch=16, disc_warmup=2, snapshot_every=2,
                      snapshot_trials=128, loss_mode=loss_mode)
    system, log = train(cfg, get_preset(preset), RngStream(0))
    return log, evaluate_system(system, 300, RngStream(0, 7))


def test_6g_dense_seed0_numbers_are_pinned():
    # five correlated wardens: the widest stack and the shared-fading tap draw
    log, report = _short_run("6g-dense", "standard")
    assert log.gen_loss == pytest.approx(
        [0.5063184772305276, 0.5793815058885017, 0.5979476525617214,
         0.6190494859761112], rel=REL)
    assert log.covert_loss == pytest.approx(
        [-0.678848449949707, -0.6691241588104286, -0.673588947891906,
         -0.649040129171386], rel=REL)
    assert log.decode_mse == pytest.approx(
        [1.1851669271802345, 1.2485056646989303, 1.2715366004536275,
         1.2680896151474972], rel=REL)
    assert [v for row in log.disc_loss for v in row] == pytest.approx(
        [-1.4673928521546775, -1.363838891817574, -1.3635566409276,
         -1.479904998948547, -1.4006284775785596, -1.3487314423939467,
         -1.4279742149841572, -1.4244767615463827, -1.3391679842178852,
         -1.3954854483788952, -1.392209969841173, -1.4235235943814877,
         -1.3990914153238114, -1.441764612383915, -1.3665065630983668,
         -1.3932321115646367, -1.3995631536368927, -1.3877978897120762,
         -1.3564008169089607, -1.3656800374803382], rel=REL)
    assert log.covert_metric == pytest.approx(
        [0.4854737559300041, 0.4818758688647585, 0.4849160270593467,
         0.4735272558907598], rel=REL)

    snaps = [(s["iteration"], s["csr"], s["ber"], *s["pd_learned"]) for s in log.snapshots]
    assert snaps == [
        (0, 0.3984375, 0.5029296875, 0.171875, 0.1171875, 0.1796875, 0.09375, 0.2109375),
        (2, 0.4296875, 0.4873046875, 0.1640625, 0.1171875, 0.1640625, 0.1328125, 0.203125),
        (4, 0.4140625, 0.5166015625, 0.15625, 0.1484375, 0.1875, 0.1796875, 0.1640625),
    ]

    assert report.csr == pytest.approx(0.48333333333333334, rel=REL)
    assert report.ber == pytest.approx(0.47708333333333336, rel=REL)
    per_warden = [v for w in report.per_warden for v in (w.pd, w.pf, w.pd_lrt)]
    assert per_warden == pytest.approx(
        [0.13666666666666666, 0.1, 0.9808089765009046,
         0.15, 0.1, 0.9745116697207419,
         0.16, 0.1, 0.97753629849428,
         0.13, 0.1, 0.9803473763067391,
         0.17, 0.1, 0.9806217751123241], rel=REL)


def test_urban_wasserstein_seed0_numbers_are_pinned():
    # linear critics with weight clipping after every step
    log, report = _short_run("urban", "wasserstein")
    assert log.gen_loss == pytest.approx(
        [1.0737661598578152, 1.3063221324873142, 1.2666207122808766,
         1.5386141446840922], rel=REL)
    assert log.covert_loss == pytest.approx(
        [0.0042088677613995595, 0.004354862395449494, 0.005894690361795851,
         0.005764418155579959], rel=REL)
    assert log.decode_mse == pytest.approx(
        [1.0695572920964156, 1.3019672700918647, 1.2607260219190808,
         1.5328497265285121], rel=REL)
    assert [v for row in log.disc_loss for v in row] == pytest.approx(
        [0.0002946217470541786, 0.00042172606982341905, -0.0002521123815968952,
         -0.0001035485293215347, 0.0009265951736799585, -4.1746428335345115e-05,
         0.0012021212223634172, 0.0009881296147564445, -0.0009309808684777885,
         0.0008195519985479287, 0.001508191070424489, 0.0010807630675353898], rel=REL)
    assert log.covert_metric == pytest.approx(
        [-0.00420886776139956, -0.004354862395449494, -0.005894690361795852,
         -0.005764418155579959], rel=REL)

    snaps = [(s["iteration"], s["csr"], s["ber"], *s["pd_learned"]) for s in log.snapshots]
    assert snaps == [
        (0, 0.4609375, 0.505859375, 0.3125, 0.1796875, 0.171875),
        (2, 0.46875, 0.490234375, 0.296875, 0.1328125, 0.1796875),
        (4, 0.546875, 0.537109375, 0.2734375, 0.1171875, 0.2109375),
    ]

    assert report.csr == pytest.approx(0.5366666666666666, rel=REL)
    assert report.ber == pytest.approx(0.4795833333333333, rel=REL)
    per_warden = [v for w in report.per_warden for v in (w.pd, w.pf, w.pd_lrt)]
    assert per_warden == pytest.approx(
        [0.23666666666666666, 0.1, 0.9961889834119688,
         0.17, 0.1, 0.975188173685455,
         0.12, 0.1, 0.9239930626350694], rel=REL)


def test_urban_evaluation_over_several_row_blocks_is_pinned():
    # 2,500 trials: the generator, H1 and decoder forwards span four 512-row
    # blocks, the last with the remainder, and the 10,000 H0 rows nineteen
    cfg = TrainConfig(iterations=4, batch=16, disc_warmup=2, snapshot_every=0)
    system, _ = train(cfg, get_preset("urban"), RngStream(0))
    report = evaluate_system(system, 2500, RngStream(0, 7))
    assert report.csr == pytest.approx(0.6148, rel=REL)
    assert report.ber == pytest.approx(0.496, rel=REL)
    assert report.mean_signal_energy == pytest.approx(3.5008243943148116, rel=REL)
    per_warden = [v for w in report.per_warden for v in (w.pd, w.pf, w.pd_lrt)]
    assert per_warden == pytest.approx(
        [0.1872, 0.1, 0.9941489189951604,
         0.1204, 0.1, 0.9735132253593929,
         0.1468, 0.1, 0.9137842655120181], rel=REL)


def test_urban_adaptive_wardens_are_pinned():
    # retraining at iterations 3 and 6 replays a window shorter than the buffer
    cfg = TrainConfig(iterations=4, batch=16, disc_warmup=2, snapshot_every=0)
    system, _ = train(cfg, get_preset("urban"), RngStream(0))
    metric = adaptive_warden_loop(system, RngStream(0, 60), period=3, window=8, total=8,
                                  batch=4, retrain_steps=5)
    assert metric.tolist() == pytest.approx(
        [0.5, 0.5, 0.5, 0.4959723877208184, 0.4954486000101235, 0.49529244959779134,
         0.4896249295889408, 0.48466551005586345], rel=REL)


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
        ("proposed-lrt", "custom", 2, "mean_pd", 2, 0.9929978352621227, 0.0),
        ("noise-injection", "custom", 2, "mean_pd", 2, 0.9997066180268499, 0.0),
        ("proposed", "custom", 3, "mean_pd", 3, 0.24666666666666667, 0.03048132397241155),
        ("proposed-lrt", "custom", 3, "mean_pd", 3, 0.9964809391327941, 0.0),
        ("noise-injection", "custom", 3, "mean_pd", 3, 0.999261797999289, 0.0),
        ("proposed", "custom", 4, "mean_pd", 4, 0.19125, 0.027809480173135205),
        ("proposed-lrt", "custom", 4, "mean_pd", 4, 0.9845539506116464, 0.0),
        ("noise-injection", "custom", 4, "mean_pd", 4, 0.9994823644090938, 0.0),
        ("proposed", "custom", 5, "mean_pd", 5, 0.15999999999999998, 0.02592296279363144),
        ("proposed-lrt", "custom", 5, "mean_pd", 5, 0.9793921404088086, 0.0),
        ("noise-injection", "custom", 5, "mean_pd", 5, 0.9991962026154315, 0.0),
    ],
    "ber-vs-snr": [
        ("proposed", "urban", 3, "ber", 0, 0.5075, 0.012498593670889537),
        ("proposed", "urban", 3, "ber", 5, 0.485, 0.012494373733805148),
        ("proposed", "urban", 3, "ber", 10, 0.508125, 0.012498349500409045),
        ("proposed", "urban", 3, "ber", 15, 0.505625, 0.012499208959345188),
        ("proposed", "urban", 3, "ber", 20, 0.491875, 0.012498349500409043),
        ("noise-injection", "urban", 3, "ber", 0, 0.245625, 0.030437917091598106),
        ("noise-injection", "urban", 3, "ber", 5, 0.16, 0.02592296279363144),
        ("noise-injection", "urban", 3, "ber", 10, 0.085625, 0.019785519878815418),
        ("noise-injection", "urban", 3, "ber", 15, 0.04375, 0.014463045581757667),
        ("noise-injection", "urban", 3, "ber", 20, 0.02375, 0.010767064943613928),
    ],
    "csr-vs-epochs": [
        ("proposed", "urban", 3, "csr", 0, 0.6796875, 0.041241703933161476),
        ("proposed", "urban", 3, "csr", 2, 0.546875, 0.04399953252370629),
        ("proposed", "urban", 3, "csr", 4, 0.59375, 0.043410372599400136),
    ],
    "pd-distribution": [
        ("proposed", "6g-dense", 5, "pd", 0, 0.175, 0.026867731575255845),
        ("proposed", "6g-dense", 5, "pd", 1, 0.125, 0.023385358667337135),
        ("proposed", "6g-dense", 5, "pd", 2, 0.1, 0.021213203435596427),
        ("proposed", "6g-dense", 5, "pd", 3, 0.035, 0.012995191418367026),
        ("proposed", "6g-dense", 5, "pd", 4, 0.17, 0.02656124997058685),
        ("noise-injection", "6g-dense", 5, "pd", 0, 0.9988037946871665, 0.0),
        ("noise-injection", "6g-dense", 5, "pd", 1, 0.9987291529827825, 0.0),
        ("noise-injection", "6g-dense", 5, "pd", 2, 0.9996998994116533, 0.0),
        ("noise-injection", "6g-dense", 5, "pd", 3, 0.9990954647700027, 0.0),
        ("noise-injection", "6g-dense", 5, "pd", 4, 0.9996522807217749, 0.0),
    ],
    "ber-vs-layers": [
        ("proposed", "urban", 3, "ber", 3, 0.52, 0.012489995996796796),
        ("proposed", "urban", 3, "ber", 5, 0.52, 0.012489995996796796),
        ("proposed", "urban", 3, "ber", 8, 0.485625, 0.012494832916424893),
        ("proposed", "urban", 3, "ber", 10, 0.483125, 0.012492878830933045),
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
        [0.5, 0.5, 0.32494077286228945, 0.30571879591220974, 0.3475496553568034,
         0.3528695513910942, 0.4159723095318255, 0.10188460950821125,
         0.20049163939455042, 0.3715542621152441, 0.2254877608859588], rel=REL)
    assert math.fsum(values) == pytest.approx(1613.1353756513508, rel=REL)
