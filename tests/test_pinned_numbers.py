"""Pins a short urban training run and its evaluation to recorded values.

The acceptance determinism gate replays a run within one process, so it
cannot see a change that reorders the random draws; these literals can.
A change that alters the draw order on purpose must re-record them and
say so.
"""

import pytest

from covertsim.adversarial import TrainConfig, train
from covertsim.evaluation import evaluate_system
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
