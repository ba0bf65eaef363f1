"""Acceptance gate: the ten numbered behavior guarantees this package makes.

Each test prints one `criterion N ... PASS/FAIL` line; run with -v (one
result line per criterion) or -s (detail lines too).  The slow federated
criteria (7 and 8) each train a small transformer many times and dominate
the suite's runtime; their wall-clock budgets are asserted explicitly.
"""

import statistics
import time

import numpy as np

from fedtt.cli import main
from fedtt.config import DataSettings, ModelSettings, RunConfig, format_config
from fedtt.data import Corpus, PartitionSpec, generate_corpus, partition
from fedtt.fed import FedConfig, _seed_tree, _split_eval, run_training
from fedtt.nn import (
    AdamW,
    DenseAdapter,
    TensorizedAdapter,
    TensorizedLinear,
    ToyModel,
    get_pretrained_backbone,
    linear_backward,
)
from fedtt.privacy import clip, dp_batch_gradient, noise_multiplier
from fedtt.report import comm_report
from fedtt.tt import (
    TTWeight,
    full_rank_plan,
    param_count,
    reconstruct,
    shape_plan_for,
    tt_matvec,
    tt_svd,
)

from conftest import tiny_run_config


def report(n: int, label: str, ok: bool, detail: str) -> bool:
    print(f"criterion {n:2d} ({label}): {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


# --------------------------------------------------------------------------


def test_criterion_01_tt_round_trip_and_matvec():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240101)
    worst_recon, worst_mv = 0.0, 0.0
    for _ in range(100):
        rows, cols = int(rng.integers(1, 17)), int(rng.integers(1, 17))
        m = rng.normal(size=(rows, cols))
        w = tt_svd(m, full_rank_plan(rows, cols))
        back = reconstruct(w)
        worst_recon = max(
            worst_recon,
            np.linalg.norm(back - m) / max(np.linalg.norm(m), 1e-300),
        )
        x = rng.normal(size=cols)
        y, y_ref = tt_matvec(w, x), m @ x
        worst_mv = max(
            worst_mv, np.linalg.norm(y - y_ref) / max(1.0, np.linalg.norm(y_ref))
        )
    elapsed = time.perf_counter() - t0
    ok = worst_recon <= 1e-10 and worst_mv <= 1e-8 and elapsed < 5.0
    assert report(
        1, "tt round trip", ok,
        f"recon {worst_recon:.2e} <= 1e-10, matvec {worst_mv:.2e} <= 1e-8, {elapsed:.2f}s < 5s",
    )


def test_criterion_02_gradient_fidelity():
    t0 = time.perf_counter()
    eps = 1e-5

    def fd(loss, arr):
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            arr[idx] += eps
            up = loss()
            arr[idx] -= 2 * eps
            dn = loss()
            arr[idx] += eps
            g[idx] = (up - dn) / (2 * eps)
        return g

    def rel(analytic, numeric):
        return np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)

    worst = 0.0
    for seed in range(10):  # 10 linear + 10 adapter = 20 instances
        rng = np.random.default_rng(1000 + seed)
        layer = TensorizedLinear.create(6, 20, 3, rng)
        layer.bias[:] = rng.normal(size=6)
        x = rng.normal(size=(3, 20))
        dy = rng.normal(size=(3, 6))
        loss = lambda: float(np.sum(dy * layer.forward(x)))
        d_factors, d_bias, dx = linear_backward(layer, x, dy)
        for j, f in enumerate(layer.weight.factors):
            worst = max(worst, rel(d_factors[j], fd(loss, f)))
        worst = max(worst, rel(d_bias, fd(loss, layer.bias)))
        worst = max(worst, rel(dx, fd(loss, x)))

        adapter = TensorizedAdapter.create(20, 6, 3, rng, activation="tanh")
        for arr in adapter.named_params().values():
            arr[...] = rng.normal(scale=0.3, size=arr.shape)  # zero up-core kills flow
        h = rng.normal(size=(3, 20))
        r = rng.normal(size=(3, 20))
        a_loss = lambda: float(np.sum(r * adapter.forward_cached(h)[0]))
        out, cache = adapter.forward_cached(h)
        grads, dh = adapter.backward(cache, r)
        for name, arr in adapter.named_params().items():
            worst = max(worst, rel(grads[name], fd(a_loss, arr)))
        worst = max(worst, rel(dh, fd(a_loss, h)))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 30.0
    assert report(
        2, "gradient fidelity", ok,
        f"worst rel {worst:.2e} <= 1e-4 over 20 instances, {elapsed:.1f}s < 30s",
    )


def test_criterion_03_parameter_accounting():
    plan_down = shape_plan_for(64, 768, 5)
    plan_up = shape_plan_for(768, 64, 5)
    assert plan_up.dims == (8, 8, 12, 8, 8)
    chain = param_count(plan_up)
    dense = DenseAdapter.create(768, 64, np.random.default_rng(0)).weight_param_count
    tt_total = param_count(plan_down) + param_count(plan_up)
    ok = chain == 780 and dense == 98304 and tt_total < 0.02 * dense
    assert report(
        3, "parameter accounting", ok,
        f"chain {chain} == 780, dense {dense} == 98304, "
        f"tt pair {tt_total} = {100 * tt_total / dense:.2f}% < 2%",
    )


def test_criterion_04_communication_table():
    params = {"LoRA": 300_000, "BitFit": 100_000, "Prompt": 10_000,
              "RoLoRA": 80_000, "FedTT": 60_000, "FedTT+": 20_000}
    rounds = {k: 1 for k in params} | {"RoLoRA": 2, "Prompt": 39}
    rows = {r.method: r for r in comm_report(params, rounds, 4, "RoLoRA")}
    published = {"LoRA": 1172, "BitFit": 390, "Prompt": 39, "FedTT": 234, "FedTT+": 78}
    uplink_ok = all(abs(rows[m].uplink_kb - kb) <= 1.0 for m, kb in published.items())
    ratio_ok = (
        abs(rows["FedTT"].ratio - 0.37) <= 0.01
        and abs(rows["FedTT+"].ratio - 0.12) <= 0.01
    )
    ok = uplink_ok and ratio_ok
    assert report(
        4, "communication table", ok,
        f"uplinks within 1 KB of {published}; "
        f"ratios {rows['FedTT'].ratio:.4f}~0.37, {rows['FedTT+'].ratio:.4f}~0.12",
    )


def test_criterion_05_factor_averaging_oracle():
    rng = np.random.default_rng(55)

    def scalar_chain(ranks):
        return TTWeight(
            [rng.normal(size=(ranks[j], 1, ranks[j + 1])) for j in range(len(ranks) - 1)],
            (1,), (1,) * (len(ranks) - 2),
        )

    def merge(chains):
        mean = [np.mean([c.factors[j] for c in chains], axis=0)
                for j in range(chains[0].chain_length)]
        return TTWeight(mean, chains[0].row_dims, chains[0].col_dims)

    min_gap, max_match = np.inf, 0.0
    for _ in range(100):
        j = int(rng.integers(3, 6))
        ranks = [1] + [int(rng.integers(1, 4)) for _ in range(j - 1)] + [1]

        # every factor client-specific: merged product != mean of products
        chains = [scalar_chain(ranks) for _ in range(4)]
        avg = np.mean([reconstruct(c)[0, 0] for c in chains])
        min_gap = min(min_gap, abs(reconstruct(merge(chains))[0, 0] - avg))

        # exactly one factor client-specific: identity holds by linearity
        base = scalar_chain(ranks)
        d = int(rng.integers(0, j))
        variants = []
        for _ in range(4):
            c = base.copy()
            c.factors[d][...] = rng.normal(size=c.factors[d].shape)
            variants.append(c)
        avg1 = np.mean([reconstruct(c)[0, 0] for c in variants])
        max_match = max(max_match, abs(reconstruct(merge(variants))[0, 0] - avg1))

    ok = min_gap > 0.0 and max_match <= 1e-12
    assert report(
        5, "factor averaging oracle", ok,
        f"all-differ min gap {min_gap:.2e} > 0; one-differs max gap {max_match:.2e} <= 1e-12",
    )


def test_criterion_06_single_client_is_centralized():
    steps = 50
    cfg = tiny_run_config(seed=606, num_clients=1, rounds=steps, local_updates=1,
                          batch_size=8, lr=3e-3)
    metrics, final = run_training(cfg)

    mc = cfg.model
    corpus_ss, part_ss, _, init_ss, client_ss = _seed_tree(cfg.seed, 1)
    full = generate_corpus(cfg.data.classes,
                           cfg.data.per_class + cfg.data.eval_per_class,
                           mc.seq_len, mc.vocab_size, corpus_ss)
    tr, _ = _split_eval(full, cfg.data.per_class, cfg.data.eval_per_class)
    train = Corpus(full.tokens[tr], full.labels[tr], full.num_classes, full.vocab_size)
    shard = partition(train, PartitionSpec("iid", 1), part_ss)[0]
    backbone = get_pretrained_backbone(mc, cfg.data.classes)
    model = ToyModel(mc, cfg.data.classes, backbone, np.random.default_rng(init_ss))
    opt = AdamW(lr=cfg.fed.lr, weight_decay=cfg.fed.weight_decay)
    batch_rng = np.random.default_rng(client_ss[0][0])
    tokens, labels = train.tokens[shard], train.labels[shard]

    order, cursor = np.empty(0, dtype=np.int64), 0
    losses = []
    for _ in range(steps):
        if cursor + cfg.fed.batch_size > len(order):
            order, cursor = batch_rng.permutation(len(labels)), 0
        idx = order[cursor:cursor + cfg.fed.batch_size]
        cursor += cfg.fed.batch_size
        loss, grads = model.loss_and_grads(tokens[idx], labels[idx])
        opt.step(model.trainables(), grads)
        losses.append(loss)

    central = model.get_trainables()
    loss_ok = all(m.train_loss == l for m, l in zip(metrics, losses))
    param_ok = all(np.array_equal(final[k], central[k]) for k in final)
    ok = loss_ok and param_ok and len(metrics) == steps
    assert report(
        6, "degenerate centralized equality", ok,
        f"{steps} losses bit-equal: {loss_ok}; final params bit-equal: {param_ok}",
    )


def _federated_accuracy(algorithm, part, seed, tt_rank=5, rounds=25,
                        local_updates=20, num_clients=10, lr=3e-4,
                        classes=4, per_class=200, eval_per_class=150):
    cfg = RunConfig(
        model=ModelSettings(bottleneck=24, tt_rank=tt_rank,
                            pretrain_steps=300, pretrain_per_class=200),
        fed=FedConfig(num_clients=num_clients, rounds=rounds,
                      local_updates=local_updates, lr=lr, batch_size=16,
                      algorithm=algorithm),
        data=DataSettings(classes=classes, per_class=per_class,
                          eval_per_class=eval_per_class, partition=part),
        seed=seed,
    )
    metrics, _ = run_training(cfg)
    return metrics[-1].eval_acc


def test_criterion_07_heterogeneity_behavior():
    t0 = time.perf_counter()
    seeds = (0, 1, 2)
    med = {}
    for algo in ("fedtt", "fedtt_plus"):
        for part in ("iid", "sorted_shards"):
            med[(algo, part)] = statistics.median(
                _federated_accuracy(algo, part, s) for s in seeds)
    elapsed = time.perf_counter() - t0

    plus_sorted = med[("fedtt_plus", "sorted_shards")]
    base_sorted = med[("fedtt", "sorted_shards")]
    plus_drop = med[("fedtt_plus", "iid")] - plus_sorted
    base_drop = med[("fedtt", "iid")] - base_sorted
    acc_ok = plus_sorted >= base_sorted - 0.01
    drop_ok = plus_drop <= base_drop
    ok = acc_ok and drop_ok and elapsed < 900.0
    assert report(
        7, "heterogeneity behavior", ok,
        f"skewed acc {plus_sorted:.3f} >= {base_sorted:.3f}-0.01: {acc_ok}; "
        f"drop {plus_drop:.3f} <= {base_drop:.3f}: {drop_ok}; {elapsed:.0f}s < 900s",
    )


def test_criterion_08_rank_ablation_direction():
    t0 = time.perf_counter()
    seeds = (0, 1, 2)
    med = {
        rank: statistics.median(
            _federated_accuracy("fedtt", "iid", s, tt_rank=rank, rounds=25,
                                local_updates=10, num_clients=5, lr=1e-3,
                                classes=8, per_class=120, eval_per_class=100)
            for s in seeds)
        for rank in (2, 5, 10)
    }
    elapsed = time.perf_counter() - t0
    ok = med[2] <= med[5] <= med[10] and elapsed < 1200.0
    assert report(
        8, "rank ablation direction", ok,
        f"medians {med[2]:.3f} <= {med[5]:.3f} <= {med[10]:.3f}; {elapsed:.0f}s < 1200s",
    )


def test_criterion_09_dp_mechanism():
    rng = np.random.default_rng(909)
    worst_excess = -np.inf
    for _ in range(10_000):
        dim = int(rng.integers(1, 40))
        scale = 10.0 ** rng.uniform(-3, 3)
        c = float(rng.uniform(0.1, 10.0))
        g = rng.normal(scale=scale, size=dim)
        worst_excess = max(worst_excess, np.linalg.norm(clip(g, c)) - c * (1 + 1e-12))
    clip_ok = worst_excess <= 0.0  # 1e-12 relative slack for the rescale rounding

    c, sigma = 1.3, 0.8
    zero = np.zeros((1, 100_000))
    noisy = dp_batch_gradient(zero, c, sigma, np.random.default_rng(77))
    std = float(np.std(noisy))
    std_ok = abs(std - c * sigma) <= 0.05 * c * sigma

    sig = noise_multiplier(epsilon=1.0, delta=1e-5, q=0.01, steps=100)
    sigma_ok = abs(sig - 0.3393) <= 1e-4

    ok = clip_ok and std_ok and sigma_ok
    assert report(
        9, "dp mechanism", ok,
        f"clip bound holds over 1e4 draws: {clip_ok}; "
        f"noise std {std:.4f} ~ {c * sigma:.4f} within 5%: {std_ok}; "
        f"sigma spot {sig:.5f} ~ 0.3393: {sigma_ok}",
    )


def test_criterion_10_worker_count_determinism(tmp_path):
    cfg = tiny_run_config(seed=1010, num_clients=8, rounds=3, local_updates=2)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(format_config(cfg), encoding="utf-8")
    outs = {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        rc = main(["train", "--config", str(cfg_path), "--out", str(out),
                   "--workers", str(workers)])
        assert rc == 0
        outs[workers] = (
            (out / "metrics.csv").read_bytes(),
            (out / "checkpoint.bin").read_bytes(),
        )
    csv_ok = outs[1][0] == outs[8][0]
    ckpt_ok = outs[1][1] == outs[8][1]
    ok = csv_ok and ckpt_ok
    assert report(
        10, "worker determinism", ok,
        f"csv bytes equal: {csv_ok}; checkpoint bytes equal: {ckpt_ok}",
    )
