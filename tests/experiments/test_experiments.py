"""Integration tests: every experiment runs and its headline claim holds.

These are the paper's assertions turned into assertions.  Sizes are kept
small; the benchmark suite runs the full-size versions.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.invariants import OUTCOME_CLEAN, OUTCOME_EXACT


def test_registry_lists_all_experiments():
    assert set(EXPERIMENTS) == {f"e{i}" for i in range(1, 21)}


def test_registry_unknown_id():
    with pytest.raises(ConfigurationError):
        run_experiment("e99")


def test_e1_raw_sharing_claims():
    result = run_experiment("e1", cohort_sizes=(8,))
    (users, utility, trending, attacker_acc, advantage, bits), = result.rows
    assert trending  # the aggregate benefit is real
    assert attacker_acc >= 0.95  # and so is the total privacy loss
    assert bits > 1000
    assert utility > 0.5


def test_e2_federated_claims():
    result = run_experiment("e2", cohort_sizes=(8,))
    (users, utility, trending, per_user, aggregate_only, bits), = result.rows
    assert trending
    assert per_user >= 0.9  # inversion breaks per-user privacy (Fig 1b)
    assert aggregate_only <= 0.65  # the aggregate alone is far less revealing


def test_e3_secure_agg_claims():
    # 12 users (the experiment default): per-user inversion guesses on
    # uniformly blinded vectors are coin flips, and smaller cohorts leave
    # the accuracy threshold one lucky streak away from flaking.
    result = run_experiment("e3", num_users=12, dropout_rates=(0.0, 0.25))
    for scheme, users, rate, error, blinded_acc, plain_acc in result.rows:
        assert error < 1e-3  # exact sums, even under dropout
        assert blinded_acc <= 0.75  # inversion collapses toward chance
        assert plain_acc >= 0.9  # while plaintext vectors fully leak


def test_e4_poisoning_claims():
    result = run_experiment("e4", num_users=6, magnitudes=(538.0,))
    by_condition = {row[0]: row for row in result.rows}
    no_glimmer = by_condition["blinding, no glimmer"]
    glimmer = by_condition["glimmer (range check)"]
    assert no_glimmer[3] > 10  # catastrophic skew (538 / N)
    assert no_glimmer[4]  # prediction flipped
    assert glimmer[3] < 1e-3  # defended aggregate is clean
    assert not glimmer[4]
    assert glimmer[5]  # attack blocked


def test_e5_pipeline_claims():
    # 10 users: same rationale as E3 — wire-capture inversion guesses are
    # coin flips, and tiny cohorts make the threshold a dice roll.
    result = run_experiment("e5", num_users=10)
    assert all(blocked for __, blocked, __ in result.attack_rows)
    assert result.aggregate_error < 1e-3
    assert result.inversion_on_wire <= 0.75
    assert result.inversion_on_plain >= 0.9
    assert result.verdict.outcome == OUTCOME_EXACT  # exact, despite the attacks
    assert result.verdict.report.messages_sent > 0


def test_e5_how_column_is_the_rejection_ledger():
    """Each submitted attack's "how" is the reason the service booked for
    it; round 1's ledger holds exactly the three refusals its rows name."""
    result = run_experiment("e5", num_users=4)
    how = {attack: reason for attack, __, reason in result.attack_rows}
    assert how == {
        "bypass glimmer (self-signed)": "invalid-signature",
        "tamper after signing": "invalid-signature",
        "replay signed contribution": "replayed-nonce",
        "538 poison via glimmer": "range predicate",  # refused in the enclave
        "cross-round replay": "wrong-round",  # booked in round 2's ledger
    }
    assert result.verdict.report.rejected == {"invalid-signature": 2, "replayed-nonce": 1}


def test_e6_predicate_ladder_claims():
    result = run_experiment("e6")
    rows = {(r[0], r[1]): r for r in result.rows}

    def detected(predicate, attack):
        return rows[(predicate, attack)][2]

    def cycles(predicate, attack):
        return rows[(predicate, attack)][3]

    # No false positives on the honest control, at any rung.
    for predicate in ("range", "range+keystrokes", "range+exec-trace"):
        assert not detected(predicate, "honest client (control)")
    # Every rung catches the 538.
    for predicate in ("range", "range+keystrokes", "range+exec-trace"):
        assert detected(predicate, "magnitude 538 (no evidence)")
    # Range alone misses the in-range boost; corroboration catches it.
    assert not detected("range", "in-range boost (no evidence)")
    assert detected("range+keystrokes", "in-range boost (no evidence)")
    assert detected("range+keystrokes", "in-range boost (robotic trace)")
    # The fully fabricated execution evades even the top rung...
    assert not detected("range+exec-trace", "fabricated consistent execution")
    # ...but costs the adversary real effort, and the Glimmer pays more
    # cycles as rungs rise (the §2 trade-off).
    fabricated_effort = rows[("range", "fabricated consistent execution")][4]
    assert fabricated_effort > 1000
    assert cycles("range+keystrokes", "honest client (control)") > cycles(
        "range", "honest client (control)"
    )


def test_e7_split_claims():
    result = run_experiment("e7", vector_sizes=(16,))
    single = next(r for r in result.rows if r[1] == "single enclave")
    split = next(r for r in result.rows if r[1] == "three enclaves")
    assert split[2] == 3 * single[2]  # 3x transition cycles
    assert split[4] > single[4]  # strictly more total cycles
    assert split[5] > 1.0


def test_e8_bot_detection_claims():
    result = run_experiment("e8", num_sessions=30, sophistication_levels=(0.0,))
    by_channel = {row[0]: row for row in result.rows}
    glimmer = by_channel["glimmer (1 audited bit)"]
    raw = by_channel["raw signal upload"]
    assert glimmer[2] == raw[2]  # same detector, same accuracy
    assert glimmer[3] == 1.0  # one bit per session
    assert raw[3] > 500  # vs hundreds of private bits
    assert by_channel["captcha"][4] == 1.0  # humans pay the annoyance


def test_e9_covert_channel_claims():
    result = run_experiment("e9", budgets=(4,))
    for predicate, budget, passed, exfiltrated, bound, held in result.rows:
        assert held
        if predicate.startswith("bit-modulating"):
            assert passed == budget  # attacker saturates the budget...
            assert exfiltrated == bound  # ...and gets exactly the bound
        else:
            assert passed == 0  # format stuffing never passes


def test_e10_gaas_claims():
    result = run_experiment("e10", num_clients=2)
    assert result.malicious_host_blocked
    latencies = [row[2] for row in result.rows]
    assert latencies == sorted(latencies)  # local < LAN < WAN
    assert all(row[4] for row in result.rows)  # all placements work
    assert [verdict.outcome for verdict in result.verdicts] == [OUTCOME_CLEAN] * 3


def test_e11_photo_maps_claims():
    result = run_experiment("e11", num_users=5, radii=(25.0,))
    (radius, photos, spoof_rejection, honest_acceptance, private_points), = result.rows
    assert spoof_rejection >= 0.9
    assert honest_acceptance >= 0.9
    assert private_points > 0


def test_e12_attestation_claims():
    result = run_experiment("e12")
    control = result.rows[0]
    assert not control[1]  # the genuine Glimmer is NOT blocked
    for attack, blocked, mechanism in result.rows[1:]:
        assert blocked, attack


def test_tables_render_for_every_experiment():
    small_kwargs = {
        "e1": dict(cohort_sizes=(4,)),
        "e2": dict(cohort_sizes=(4,)),
        "e3": dict(num_users=5, dropout_rates=(0.0,)),
        "e4": dict(num_users=5, magnitudes=(538.0,)),
        "e5": dict(num_users=4),
        "e6": dict(num_users=2),
        "e7": dict(vector_sizes=(8,)),
        "e8": dict(num_sessions=10, sophistication_levels=(0.0,)),
        "e9": dict(budgets=(2,)),
        "e10": dict(num_clients=1),
        "e11": dict(num_users=3, radii=(25.0,)),
        "e12": dict(),
        "e13": dict(num_users=3, failure_rates=(0.0,)),
        "e14": dict(num_users=3, sigmas=(0.0, 0.5)),
        "e15": dict(num_users=3, flood_sizes=(2,)),
        "e16": dict(num_users=3, epoch_intensities=(0.0, 0.4)),
        "e17": dict(num_users=3, tolerances=(0.05,), frames_per_stream=40),
        "e18": dict(num_users=3, rounds_per_rate=2, fault_rates=(0.0, 0.1)),
        "e19": dict(num_users=3, rounds_per_mix=1),
        "e20": dict(num_schedules=1, num_users=4, rounds=2),
    }
    for experiment_id, kwargs in small_kwargs.items():
        result = run_experiment(experiment_id, **kwargs)
        rendered = result.table().render()
        assert rendered.splitlines()[0].startswith(f"E{experiment_id[1:]}")


def test_e13_consortium_claims():
    result = run_experiment("e13", num_users=4, failure_rates=(0.0, 0.5))
    sgx = result.rows[0]
    reliable, flaky = result.rows[1], result.rows[2]
    assert sgx[2] < reliable[2]  # consortium costs more messages
    assert sgx[3] < reliable[3]  # and more validations
    assert reliable[5] == "4/4"  # works when everyone is up
    done, total = flaky[5].split("/")
    assert int(done) < int(total)  # but member failures stall contributions
    assert result.aggregate_agreement < 1e-3  # both agree on the aggregate


def test_e14_dp_release_claims():
    result = run_experiment("e14", num_users=6, sigmas=(0.0, 0.2, 8.0))
    noiseless, mild, heavy = result.rows
    assert noiseless[1] == float("inf") and noiseless[2] < 1e-3
    assert mild[1] < float("inf")
    assert heavy[1] < mild[1]  # more noise, stronger privacy
    assert heavy[2] > mild[2] > noiseless[2]  # and growing error
    assert noiseless[4]  # trending works without noise
    assert result.verdict.outcome == OUTCOME_CLEAN


def test_e15_flooding_claims():
    result = run_experiment("e15", num_users=4, flood_sizes=(1, 6))
    rows = {(r[0], r[1]): r for r in result.rows}
    undefended_small = rows[("range only", 1)]
    undefended_large = rows[("range only", 6)]
    defended = rows[("range + rate(1)", 6)]
    evasion = rows[("range + rate(1), restart evasion", 6)]
    assert undefended_large[2] == 6          # the whole flood signs
    assert undefended_large[3] > undefended_small[3]  # and skew grows with k
    assert defended[2] == 1                  # rate limit: one per round
    assert evasion[2] == 1                   # restarts don't reset the counter
    # Under the rate limit, flooding harder buys the attacker nothing: the
    # skew at k=6 equals the single-contribution skew (same deployment).
    assert defended[3] == pytest.approx(rows[("range + rate(1)", 1)][3], abs=1e-6)


def test_e16_trending_claims():
    result = run_experiment(
        "e16", num_users=6, epoch_intensities=(0.0, 0.0, 0.3, 0.5)
    )
    quiet = [r for r in result.rows if r[1] == 0.0]
    loud = [r for r in result.rows if r[1] > 0.0]
    assert all(not r[3] for r in quiet)    # no suggestion before the trend
    assert any(r[3] for r in loud)         # the suggestion switches on
    assert all(r[4] < 1e-3 for r in result.rows)  # every aggregate exact
    assert result.epochs_to_trend is not None
    # utility jumps once the topic is learnable
    assert max(r[5] for r in loud) > max(r[5] for r in quiet)


def test_e17_activity_claims():
    result = run_experiment(
        "e17", num_users=8, tolerances=(0.05,), frames_per_stream=80
    )
    (tolerance, total, forged_rejection, honest_acceptance, frames, separation), = result.rows
    assert forged_rejection >= 0.9    # no-video fabrications rejected
    assert honest_acceptance >= 0.9   # real footage corroborates
    assert frames > 0                 # and it all stayed on-device
    assert separation > 0.3           # the service can still learn activity


def test_e18_availability_claims():
    result = run_experiment(
        "e18", num_users=4, rounds_per_rate=4, fault_rates=(0.0, 0.1)
    )
    clean, faulted = result.rows
    # No faults: every round finalizes exactly, nothing fires or repairs.
    assert clean[2] == clean[1] and clean[3] == 0
    assert clean[6] == clean[7] == clean[9] == 0
    assert clean[5] == 100.0
    # Under faults: every round is exact-or-abort — the "inexact" column
    # is the forbidden outcome and must be zero in both conditions.
    assert faulted[4] == clean[4] == 0
    assert faulted[2] + faulted[3] == faulted[1]
    assert faulted[9] > 0  # faults actually fired


def test_e19_byzantine_claims():
    result = run_experiment("e19", num_users=4, rounds_per_mix=2)
    # The headline claim: no attacker mix ever corrupts a finalized round.
    assert result.undetected_total == 0
    rows = {r[0]: r for r in result.rows}
    honest = rows["honest baseline"]
    assert honest[2] == honest[1]  # every honest round finalizes exactly
    assert honest[6] == 0 and honest[7] == "—"
    # A cheating blinder or aggregator can only end in a blamed abort.
    for label in (
        "lying blinder: non-sum-zero",
        "tampering aggregator: corrupt",
    ):
        row = rows[label]
        assert row[3] == row[1], label  # all rounds: detected aborts
        assert row[5] == 0, label       # none finalized corrupt
        assert row[7] != "—", label     # with an offender named
    # A misbehaving client is named, evicted, and the rounds stay exact.
    for label in ("equivocating client", "flooding client"):
        row = rows[label]
        assert row[2] == row[1], label
        assert row[6] > 0 and "user-" in row[7], label
