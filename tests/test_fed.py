"""Federated protocol: selection schedule, client updates, aggregation,
round accounting, and the degenerate single-client equivalence."""

import numpy as np
import pytest

from fedtt.data import Corpus, PartitionSpec, generate_corpus, partition
from fedtt.errors import NumericalError
from fedtt.fed import (
    BYTES_PER_PARAM,
    ClientState,
    FedConfig,
    FederatedRunner,
    _seed_tree,
    _split_eval,
    aggregate,
    local_update,
    run_training,
    sample_clients,
    trainable_names,
    unfrozen_cores,
)
from fedtt.nn import AdamW, ToyModel, get_pretrained_backbone
from fedtt.privacy import DPConfig

from conftest import tiny_run_config


def build_runner(**overrides) -> FederatedRunner:
    return FederatedRunner(tiny_run_config(**overrides))


# ----------------------------------------------------------- selection


def test_rotation_schedule_hand_table():
    # J=5: r = (t mod 3) + 2, unfrozen = {1, r, 5}; frozen expectations
    want = {1: {1, 3, 5}, 2: {1, 4, 5}, 3: {1, 2, 5}, 4: {1, 3, 5}, 5: {1, 4, 5}, 6: {1, 2, 5}}
    for t, cores in want.items():
        assert unfrozen_cores("fedtt_plus", t, 5) == frozenset(cores), t


def test_rotation_cycle_length_covers_all_interiors():
    j = 6
    seen = set()
    for t in range(1, j - 1):
        seen |= unfrozen_cores("fedtt_plus", t, j)
    assert seen == set(range(1, j + 1))  # every core trains somewhere in a cycle


def test_fedtt_selects_every_core():
    assert unfrozen_cores("fedtt", 3, 4) == frozenset({1, 2, 3, 4})


def test_three_core_chains_degenerate_to_fedtt():
    assert unfrozen_cores("fedtt_plus", 9, 3) == frozenset({1, 2, 3})


def test_selection_validation():
    # 2-core chains are refused once, when the run's config is built
    with pytest.raises(ValueError, match=">= 3"):
        tiny_run_config(algorithm="fedtt_plus", bottleneck=1)
    with pytest.raises(ValueError, match="1-based"):
        unfrozen_cores("fedtt", 0, 4)
    with pytest.raises(ValueError, match="algorithm"):
        unfrozen_cores("fedsgd", 1, 4)


def test_trainable_names_filters_only_adapter_factors():
    runner = build_runner(bottleneck=24, algorithm="fedtt_plus")
    model = runner.template
    assert runner.adapter_chain == 4
    names = trainable_names(model, "fedtt_plus", 1)  # r=3: cores {1,3,4}, f1 frozen
    assert "blocks.0.adapter.attn.down.f0" in names
    assert "blocks.0.adapter.attn.down.f1" not in names
    assert "blocks.0.adapter.attn.down.f2" in names
    assert "blocks.0.adapter.attn.down.f3" in names
    # biases and the head never rotate out
    assert "blocks.0.adapter.attn.down.bias" in names
    assert all(n in names for n in model.trainables() if n.startswith("head."))
    assert list(names) == [n for n in model.trainables() if n in set(names)]  # model order


# ----------------------------------------------------------- aggregate


def test_aggregate_matches_manual_mean(rng):
    sets = [
        {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=4)} for _ in range(5)
    ]
    got = aggregate(sets)
    for k in ("a", "b"):
        want = sum(s[k] for s in sets) / 5
        assert np.allclose(got[k], want, atol=1e-15)


def test_aggregate_single_client_is_identity_bitwise(rng):
    ps = {"a": rng.normal(size=3)}
    out = aggregate([ps])
    assert np.array_equal(out["a"], ps["a"])
    assert out["a"] is not ps["a"]


def test_aggregate_rejects_mismatched_structures(rng):
    with pytest.raises(ValueError, match="nothing"):
        aggregate([])
    with pytest.raises(ValueError, match="names disagree"):
        aggregate([{"a": np.ones(2)}, {"b": np.ones(2)}])
    with pytest.raises(ValueError, match="shape"):
        aggregate([{"a": np.ones(2)}, {"a": np.ones(3)}])


def test_factor_averaging_commutes_only_when_one_core_differs(rng):
    # chains sharing all but one core: mean of products == product of means;
    # chains differing in two cores: the same identity fails
    from fedtt.tt import TTWeight, reconstruct

    def chain(c1, c2, c3):
        return TTWeight(
            [c1.reshape(1, 1, 2), c2.reshape(2, 1, 2), c3.reshape(2, 1, 1)],
            (1,), (1, 1),
        )

    shared1, shared3 = rng.normal(size=2), rng.normal(size=2)
    owns = [rng.normal(size=4) for _ in range(4)]
    recons = [reconstruct(chain(shared1, o, shared3))[0, 0] for o in owns]
    mean_core = np.mean(owns, axis=0)
    merged = reconstruct(chain(shared1, mean_core, shared3))[0, 0]
    assert abs(merged - np.mean(recons)) < 1e-12

    # now vary the first core too
    firsts = [rng.normal(size=2) for _ in range(4)]
    recons2 = [reconstruct(chain(f, o, shared3))[0, 0] for f, o in zip(firsts, owns)]
    merged2 = reconstruct(chain(np.mean(firsts, axis=0), mean_core, shared3))[0, 0]
    assert abs(merged2 - np.mean(recons2)) > 1e-8


# ----------------------------------------------------------- sampling


def test_sample_clients_bounds_and_order():
    rng = np.random.default_rng(0)
    for _ in range(50):
        ids = sample_clients(10, 4, rng)
        assert ids == sorted(ids)
        assert len(set(ids)) == 4
        assert all(0 <= i < 10 for i in ids)
    with pytest.raises(ValueError):
        sample_clients(3, 4, rng)
    with pytest.raises(ValueError):
        sample_clients(3, 0, rng)


def test_sample_clients_is_roughly_uniform():
    rng = np.random.default_rng(2024)
    counts = np.zeros(8)
    draws = 4000
    for _ in range(draws):
        for i in sample_clients(8, 2, rng):
            counts[i] += 1
    expect = draws * 2 / 8
    sd = np.sqrt(draws * (2 / 8) * (1 - 2 / 8))
    assert np.all(np.abs(counts - expect) < 4 * sd)


# ----------------------------------------------------------- client state


def test_next_batch_replays_the_permutation_stream():
    tokens = np.arange(14).reshape(7, 2)
    labels = np.arange(7)
    seed = np.random.SeedSequence(9)
    client = ClientState(0, tokens, labels, AdamW(), np.random.default_rng(seed))
    got = [client.next_batch(3)[1].tolist() for _ in range(5)]

    # oracle: same generator, same reshuffle-on-exhaustion rule
    ref_rng = np.random.default_rng(np.random.SeedSequence(9))
    order, cursor, want = np.empty(0, dtype=int), 0, []
    for _ in range(5):
        if cursor + 3 > len(order):
            order, cursor = ref_rng.permutation(7), 0
        want.append(labels[order[cursor : cursor + 3]].tolist())
        cursor += 3
    assert got == want


def test_next_batch_caps_at_shard_size():
    client = ClientState(0, np.zeros((3, 2), dtype=np.int64), np.arange(3),
                         AdamW(), np.random.default_rng(0))
    tok, lab = client.next_batch(50)
    assert len(lab) == 3


def test_empty_shard_rejected():
    with pytest.raises(ValueError, match="empty"):
        ClientState(2, np.zeros((0, 4), dtype=np.int64), np.zeros(0),
                    AdamW(), np.random.default_rng(0))


# ----------------------------------------------------------- local update


@pytest.fixture(scope="module")
def plus_runner():
    return build_runner(bottleneck=24, algorithm="fedtt_plus", rounds=4,
                        local_updates=2, seed=5)


def test_local_update_freezes_rotated_out_cores(plus_runner):
    runner = plus_runner
    model, client = runner.models[0], runner.clients[0]
    names = trainable_names(model, "fedtt_plus", 1)  # f1 is frozen this round
    before = {k: v.copy() for k, v in runner.server_params.items()}
    returned, loss = local_update(model, client, runner.server_params, names,
                                  runner.cfg.fed, runner.cfg.dp)
    assert np.isfinite(loss)
    live = model.trainables()
    frozen = [n for n in live if n.endswith(".f1") and "adapter" in n]
    moved = [n for n in returned if n.endswith(".f0") and "adapter" in n]
    assert frozen and moved
    for n in frozen:
        assert n not in returned
        assert np.array_equal(live[n], before[n])  # untouched, bit for bit
    assert any(not np.array_equal(live[n], before[n]) for n in moved)
    assert set(returned) == set(names)


def test_local_update_resets_moments_on_reentry(plus_runner):
    runner = plus_runner
    model, client = runner.models[0], runner.clients[1]
    names1 = trainable_names(model, "fedtt_plus", 1)  # f2 in, f1 out
    local_update(model, client, runner.server_params, names1, runner.cfg.fed)
    f2 = "blocks.0.adapter.attn.down.f2"
    f1 = "blocks.0.adapter.attn.down.f1"
    assert client.optimizer.state[f2][2] == runner.cfg.fed.local_updates

    names2 = trainable_names(model, "fedtt_plus", 2)  # f1 back in, f2 out
    local_update(model, client, runner.server_params, names2, runner.cfg.fed)
    # f1 was newly unfrozen: its counter restarted at this round's steps
    assert client.optimizer.state[f1][2] == runner.cfg.fed.local_updates
    # f2 kept its stale state (no steps applied while frozen)
    assert client.optimizer.state[f2][2] == runner.cfg.fed.local_updates


def test_fedtt_moments_keep_counting_across_participations():
    # Under fedtt no core ever re-enters training, so the reset at each
    # participation clears nothing and every step counter keeps counting.
    runner = build_runner(rounds=3, local_updates=2)
    runner.run()
    steps = runner.cfg.fed.rounds * runner.cfg.fed.local_updates
    for client in runner.clients:
        state = client.optimizer.state
        assert set(state) == set(runner.server_params)
        assert all(t == steps for _, _, t in state.values())


def test_dp_per_sample_path_matches_plain_mean_with_huge_clip():
    runner_a = build_runner(seed=31, rounds=1)
    runner_b = build_runner(seed=31, rounds=1)
    names = trainable_names(runner_a.template, "fedtt", 1)
    fed_cfg = runner_a.cfg.fed

    plain, loss_a = local_update(
        runner_a.models[0], runner_a.clients[0], runner_a.server_params, names, fed_cfg
    )
    dp_cfg = DPConfig(enabled=True, clip=1e9, sigma=1.0)
    client_b = runner_b.clients[0]
    client_b.sigma = 0.0  # calibrated off: isolates the clipping/mean path
    noisy, loss_b = local_update(
        runner_b.models[0], client_b, runner_b.server_params, names, fed_cfg, dp_cfg
    )
    assert abs(loss_a - loss_b) < 1e-9
    for k in plain:
        assert np.allclose(plain[k], noisy[k], atol=1e-9), k


def test_dp_noise_perturbs_the_update():
    runner = build_runner(seed=31, rounds=1)
    names = trainable_names(runner.template, "fedtt", 1)
    dp_cfg = DPConfig(enabled=True, clip=0.5, sigma=2.0)
    runner.clients[1].sigma = 2.0
    noisy, _ = local_update(
        runner.models[0], runner.clients[1], runner.server_params, names,
        runner.cfg.fed, dp_cfg,
    )
    again, _ = local_update(
        runner.models[0], runner.clients[2], runner.server_params, names,
        runner.cfg.fed, dp_cfg,
    )
    diffs = [np.abs(noisy[k] - again[k]).max() for k in noisy]
    assert max(diffs) > 0  # different clients, different noise streams


# ----------------------------------------------------------- rounds


def test_round_metrics_and_uplink_accounting():
    runner = build_runner(rounds=3, num_clients=3)
    total_params = sum(v.size for v in runner.template.trainables().values())
    m1 = runner.run_round()
    assert m1.round == 1
    assert m1.client_ids == (0, 1, 2)
    assert m1.uplink_kb == total_params * BYTES_PER_PARAM / 1024
    assert m1.cumulative_kb == 3 * m1.uplink_kb
    m2 = runner.run_round()
    assert m2.cumulative_kb == m1.cumulative_kb + 3 * m2.uplink_kb
    assert np.isfinite(m2.train_loss) and np.isfinite(m2.eval_loss)
    assert 0.0 <= m2.eval_acc <= 1.0


def test_plus_uplink_cycles_with_rotation():
    runner = build_runner(bottleneck=24, algorithm="fedtt_plus", rounds=4)
    ups = [runner.run_round().uplink_kb for _ in range(4)]
    assert ups[0] != ups[1]  # interior cores have different sizes
    assert ups[0] == ups[2] and ups[1] == ups[3]  # period matches the cycle
    full = sum(v.size for v in runner.template.trainables().values())
    assert all(u < full * BYTES_PER_PARAM / 1024 for u in ups)


def test_client_subsampling_draws_from_server_stream():
    runner = build_runner(num_clients=3, clients_per_round=2, rounds=4)
    seen = set()
    for _ in range(4):
        m = runner.run_round()
        assert len(m.client_ids) == 2
        seen |= set(m.client_ids)
    assert len(seen) >= 2  # selection varies across rounds with high probability


def test_nan_in_server_state_raises_with_round_index():
    runner = build_runner(rounds=2)
    runner.run_round()
    key = next(iter(runner.server_params))
    runner.server_params[key][(0,) * runner.server_params[key].ndim] = np.nan
    with pytest.raises(NumericalError, match="round 2"):
        runner.run_round()


# ----------------------------------------------------------- determinism


def test_same_seed_same_run():
    a_metrics, a_final = run_training(tiny_run_config(seed=77, rounds=3))
    b_metrics, b_final = run_training(tiny_run_config(seed=77, rounds=3))
    assert a_metrics == b_metrics  # float-exact dataclass equality
    for k in a_final:
        assert np.array_equal(a_final[k], b_final[k])
    c_metrics, _ = run_training(tiny_run_config(seed=78, rounds=3))
    assert c_metrics != a_metrics


def test_worker_count_does_not_change_results():
    base = tiny_run_config(seed=13, rounds=2, num_clients=4, workers=1)
    threaded = tiny_run_config(seed=13, rounds=2, num_clients=4, workers=4)
    a_metrics, a_final = run_training(base)
    b_metrics, b_final = run_training(threaded)
    assert a_metrics == b_metrics
    for k in a_final:
        assert np.array_equal(a_final[k], b_final[k])


def test_single_client_equals_centralized_training():
    cfg = tiny_run_config(seed=123, num_clients=1, rounds=6, local_updates=1,
                          batch_size=8, lr=3e-3)
    metrics, final = run_training(cfg)

    # independent centralized loop over the same derived streams
    mc = cfg.model
    corpus_ss, part_ss, _, init_ss, client_ss = _seed_tree(123, 1)
    full = generate_corpus(
        cfg.data.classes, cfg.data.per_class + cfg.data.eval_per_class,
        mc.seq_len, mc.vocab_size, corpus_ss,
    )
    tr, _ = _split_eval(full, cfg.data.per_class, cfg.data.eval_per_class)
    train = Corpus(full.tokens[tr], full.labels[tr], full.num_classes, full.vocab_size)
    shard = partition(train, PartitionSpec("iid", 1), part_ss)[0]
    backbone = get_pretrained_backbone(mc, cfg.data.classes)
    model = ToyModel(mc, cfg.data.classes, backbone, np.random.default_rng(init_ss))
    opt = AdamW(lr=cfg.fed.lr, weight_decay=cfg.fed.weight_decay)
    batch_rng = np.random.default_rng(client_ss[0][0])
    tokens, labels = train.tokens[shard], train.labels[shard]
    order, cursor = np.empty(0, dtype=np.int64), 0
    for _ in range(6):
        bs = min(cfg.fed.batch_size, len(labels))
        if cursor + bs > len(order):
            order, cursor = batch_rng.permutation(len(labels)), 0
        idx = order[cursor : cursor + bs]
        cursor += bs
        _, grads = model.loss_and_grads(tokens[idx], labels[idx])
        opt.step(model.trainables(), grads)

    central = model.get_trainables()
    for k in final:
        assert np.array_equal(final[k], central[k]), k  # bit-identical


def test_run_training_returns_full_history():
    cfg = tiny_run_config(seed=4, rounds=3)
    metrics, final = run_training(cfg)
    assert [m.round for m in metrics] == [1, 2, 3]
    assert metrics[-1].cumulative_kb == pytest.approx(
        sum(len(m.client_ids) * m.uplink_kb for m in metrics)
    )
    assert set(final) == set(FederatedRunner(cfg).server_params)
