#!/usr/bin/env python3
"""Validates the sweep CSVs the benches write, one spec per CSV.

Usage:
  check_csv.py <csv> [--strict]
  check_csv.py --selfcheck

The spec is picked by the file stem (bench_results/<stem>.csv): fault,
churn, byzantine, drift, overload or service. A spec is data:

  columns      the exact header, in order
  enums        column -> the values it may hold
  unit         columns whose values lie in [0, 1]
  counts       columns holding non-negative integers
  nonnegative  columns holding non-negative reals
  rules        row rules: a row that matches `when` must satisfy `then`
  identities   rows matching `where`, grouped by `key`, must agree on the
               `agree` columns (every other column when None) and hold one
               row per value of `pair`
  contrasts    rows matching `where` must differ, in some column that is
               neither in `key` nor an enum, from the `base` row with the
               same `key`
  each_algorithm_has   rows every algorithm must have

plus one strict-witness function, the acceptance bar --strict adds.

--selfcheck proves every check can fail. Each committed CSV under the
repository's bench_results/ must pass --strict; then one corruption
per spec entry must fail with that entry's message: a dropped column, an
unknown enum value, a value outside [0, 1], a negative count or real, a
broken row rule, one perturbed member of an identity group, a contrasted
row overwritten with its base row, an algorithm missing required rows,
and (failing --strict only) a degraded witness row.

Pure stdlib. Exit codes: 0 ok, 1 violation or selfcheck failure, 2 usage
or IO error.
"""

import argparse
import copy
import csv
import os
import re
import sys

ALGORITHMS = ["cempar", "pace"]
FLAG = ["0", "1"]
EPS = 1e-12
HEX16 = re.compile(r"[0-9a-f]{16}")


def num(row, col):
    return float(row[col])


def cnt(row, col):
    return int(row[col])


def setv(row, **values):
    """Corruption helper: overwrites columns with the given values."""
    row.update({k: str(v) for k, v in values.items()})


def rule(text, then, corrupt, when=lambda r: True):
    return {"text": text, "when": when, "then": then, "corrupt": corrupt}


def identity(text, key, agree, pair=None, where=lambda r: True):
    return {"text": text, "where": where, "key": key, "agree": agree,
            "pair": pair}


def contrast(text, key, base, where):
    return {"text": text, "key": key, "base": base, "where": where}


# Row rules several CSVs share, each written once.
OUTCOMES = rule(
    "ok+degraded+cached+failed == completed == offered",
    lambda r: (cnt(r, "ok") + cnt(r, "degraded") + cnt(r, "cached")
               + cnt(r, "failed") == cnt(r, "completed") == cnt(r, "offered")),
    lambda r: setv(r, completed=cnt(r, "completed") + 1))
WITHIN_SLO = rule(
    "within_slo <= completed",
    lambda r: cnt(r, "within_slo") <= cnt(r, "completed"),
    lambda r: setv(r, within_slo=cnt(r, "completed") + 1))
QUANTILES = rule(
    "p50 <= p95 <= p99",
    lambda r: (num(r, "p50_s") <= num(r, "p95_s") + EPS
               and num(r, "p95_s") <= num(r, "p99_s") + EPS),
    lambda r: setv(r, p50_s=num(r, "p99_s") + 1))
FINGERPRINT = rule(
    "fingerprint is 16 hex digits",
    lambda r: HEX16.fullmatch(r["fingerprint"]) is not None,
    lambda r: setv(r, fingerprint="not-a-digest"))

SPECS = {}


# ROBUST1: loss x fault plan x reliability (bench_fault).


def fault_witness(rows):
    """Delivery converges: every reliable row answers every request, and
    every reliable PACE row disseminates every model."""
    errors = []
    for r in rows:
        if r["reliable"] != "1":
            continue
        where = f"{r['algorithm']}/{r['plan']}@{r['loss_rate']}"
        if num(r, "prediction_success_rate") != 1.0:
            errors.append(f"acceptance: reliable {where} success "
                          f"{r['prediction_success_rate']} != 1")
        if r["algorithm"] == "pace" and num(r, "model_coverage") != 1.0:
            errors.append(f"acceptance: reliable {where} coverage "
                          f"{r['model_coverage']} != 1")
    return errors


SPECS["fault"] = {
    "columns": [
        "algorithm", "plan", "loss_rate", "reliable", "micro_f1", "macro_f1",
        "prediction_success_rate", "failed", "degraded", "attempted",
        "delivery_rate", "retry_overhead", "retransmits", "give_ups",
        "injected_drops", "model_coverage"],
    "enums": {"algorithm": ALGORITHMS, "reliable": FLAG,
              "plan": ["none", "burst", "partition", "spike", "crash"]},
    "unit": ["loss_rate", "micro_f1", "macro_f1", "prediction_success_rate",
             "delivery_rate"],
    "counts": ["failed", "degraded", "attempted", "retransmits", "give_ups",
               "injected_drops"],
    "nonnegative": ["retry_overhead"],
    "rules": [
        rule("plan=none injects no drops",
             lambda r: cnt(r, "injected_drops") == 0,
             lambda r: setv(r, injected_drops=1),
             when=lambda r: r["plan"] == "none"),
        rule("fire-and-forget never retransmits or gives up",
             lambda r: cnt(r, "retransmits") == 0 and cnt(r, "give_ups") == 0,
             lambda r: setv(r, retransmits=1),
             when=lambda r: r["reliable"] == "0"),
        rule("model_coverage is -1 for CEMPaR",
             lambda r: num(r, "model_coverage") == -1.0,
             lambda r: setv(r, model_coverage=0.5),
             when=lambda r: r["algorithm"] == "cempar"),
        rule("model_coverage lies in [0, 1] for PACE",
             lambda r: 0.0 <= num(r, "model_coverage") <= 1.0,
             lambda r: setv(r, model_coverage=-1),
             when=lambda r: r["algorithm"] == "pace"),
    ],
    "identities": [
        identity("reliable and fire-and-forget agree at loss 0, plan none",
                 key=["algorithm"], agree=["micro_f1", "macro_f1"],
                 pair=("reliable", FLAG),
                 where=lambda r: (num(r, "loss_rate") == 0.0
                                  and r["plan"] == "none")),
    ],
    # A fault window that opens after the run has ended leaves its row
    # equal to plan=none. Exempt: spike (no column times its delay) and
    # fire-and-forget rows, whose one-shot traffic may all fall outside
    # the window.
    "contrasts": [
        contrast("each fault plan but spike changes its reliable row",
                 key=["algorithm", "loss_rate", "reliable"],
                 base=lambda r: r["plan"] == "none",
                 where=lambda r: (r["reliable"] == "1"
                                  and r["plan"] not in ("none", "spike"))),
    ],
    "witness": fault_witness,
    "degrade": lambda rows: next(
        r for r in rows if r["reliable"] == "1").update(
            prediction_success_rate="0.5"),
}


# DEMO3: warm vs cold rejoin across churn models (bench_churn).


def churn_witness(rows):
    """Warm rejoin is strictly cheaper than cold wherever peers rejoin."""
    errors = []
    for warm in rows:
        if warm["rejoin_mode"] != "warm" or cnt(warm, "rejoins") == 0:
            continue
        cold = find(rows, algorithm=warm["algorithm"], churn=warm["churn"],
                    rejoin_mode="cold")
        where = f"{warm['algorithm']}/{warm['churn']}"
        if cold is None:
            errors.append(f"acceptance: {where} has no cold row")
            continue
        for col in ("retrain_examples", "mean_rejoin_latency_sec",
                    "max_rejoin_latency_sec"):
            if not num(cold, col) > num(warm, col):
                errors.append(f"acceptance: {where} cold {col} {cold[col]} "
                              f"not above warm {warm[col]}")
    return errors


SPECS["churn"] = {
    "columns": [
        "algorithm", "churn", "rejoin_mode", "micro_f1", "macro_f1", "failed",
        "attempted", "failures", "rejoins", "warm_rejoins", "cold_rejoins",
        "corrupt_checkpoints", "retrain_examples", "checkpoint_bytes",
        "mean_rejoin_latency_sec", "max_rejoin_latency_sec"],
    "enums": {"algorithm": ALGORITHMS,
              "churn": ["none", "exponential", "pareto"],
              "rejoin_mode": ["warm", "cold"]},
    "unit": ["micro_f1", "macro_f1"],
    "counts": ["failed", "attempted", "failures", "rejoins", "warm_rejoins",
               "cold_rejoins", "corrupt_checkpoints", "retrain_examples",
               "checkpoint_bytes"],
    "nonnegative": ["mean_rejoin_latency_sec", "max_rejoin_latency_sec"],
    "rules": [
        rule("warm rows neither rejoin cold nor retrain",
             lambda r: (cnt(r, "cold_rejoins") == 0
                        and cnt(r, "retrain_examples") == 0),
             lambda r: setv(r, retrain_examples=1),
             when=lambda r: r["rejoin_mode"] == "warm"),
        rule("cold rows never rejoin warm",
             lambda r: cnt(r, "warm_rejoins") == 0,
             lambda r: setv(r, warm_rejoins=1),
             when=lambda r: r["rejoin_mode"] == "cold"),
        rule("warm_rejoins + cold_rejoins == rejoins",
             lambda r: (cnt(r, "warm_rejoins") + cnt(r, "cold_rejoins")
                        == cnt(r, "rejoins")),
             lambda r: setv(r, rejoins=cnt(r, "rejoins") + 1)),
    ],
    "identities": [
        identity("warm and cold share the churn schedule",
                 key=["algorithm", "churn"],
                 agree=["failures", "rejoins", "checkpoint_bytes"],
                 pair=("rejoin_mode", ["warm", "cold"])),
        identity("warm and cold agree on every column without churn",
                 key=["algorithm"], agree=None,
                 pair=("rejoin_mode", ["warm", "cold"]),
                 where=lambda r: r["churn"] == "none"),
    ],
    "witness": churn_witness,
    "degrade": lambda rows: [r.update(retrain_examples="0") for r in rows
                             if r["rejoin_mode"] == "cold"],
}


# BYZ1: adversary fraction x behavior x defense (bench_byzantine).


def byzantine_witness(rows):
    """At 30 % label flip the defended arm stays within 5 macro-F1 points
    of clean, and the undefended arm degrades strictly more."""
    errors = []
    for algo in algorithms(rows):
        clean = find(rows, algorithm=algo, adversary="none", defended="1")
        flip = {arm: find(rows, algorithm=algo, adversary="label_flip",
                          defended=arm, malicious_fraction=0.3)
                for arm in FLAG}
        if clean is None or None in flip.values():
            errors.append(f"acceptance: {algo} lacks the clean or 30% "
                          "label-flip rows")
            continue
        clean_f1 = num(clean, "macro_f1")
        def_f1 = num(flip["1"], "macro_f1")
        undef_f1 = num(flip["0"], "macro_f1")
        if def_f1 < clean_f1 - 0.05:
            errors.append(f"acceptance: {algo} defended 30% flip macro-F1 "
                          f"{def_f1:.4f} drops more than 5 points from "
                          f"clean {clean_f1:.4f}")
        if not clean_f1 - undef_f1 > clean_f1 - def_f1:
            errors.append(f"acceptance: {algo} undefended 30% flip macro-F1 "
                          f"{undef_f1:.4f} does not degrade strictly more "
                          f"than defended {def_f1:.4f}")
    return errors


SPECS["byzantine"] = {
    "columns": [
        "algorithm", "adversary", "malicious_fraction", "malicious_peers",
        "defended", "micro_f1", "macro_f1", "prediction_success_rate",
        "attempted", "models_rejected", "votes_discarded",
        "quarantined_pairs", "trust_observations", "train_bytes",
        "train_sim_seconds"],
    "enums": {"algorithm": ALGORITHMS, "defended": FLAG,
              "adversary": ["none", "label_flip", "garbage_model",
                            "dimension_mismatch", "accuracy_inflate",
                            "vote_spam"]},
    "unit": ["malicious_fraction", "micro_f1", "macro_f1",
             "prediction_success_rate"],
    "counts": ["malicious_peers", "attempted", "models_rejected",
               "votes_discarded", "quarantined_pairs", "trust_observations",
               "train_bytes"],
    "nonnegative": ["train_sim_seconds"],
    "rules": [
        rule("a clean row has zero malicious peers",
             lambda r: (num(r, "malicious_fraction") == 0.0
                        and cnt(r, "malicious_peers") == 0),
             lambda r: setv(r, malicious_peers=1),
             when=lambda r: r["adversary"] == "none"),
        rule("a clean defended row rejects and quarantines nothing",
             lambda r: (cnt(r, "models_rejected") == 0
                        and cnt(r, "quarantined_pairs") == 0),
             lambda r: setv(r, models_rejected=1),
             when=lambda r: r["adversary"] == "none" and r["defended"] == "1"),
    ],
    "identities": [
        # The defenses are gates that never fire for honest peers.
        identity("clean defended and undefended rows are bit-identical",
                 key=["algorithm"],
                 agree=["micro_f1", "macro_f1", "train_bytes",
                        "train_sim_seconds"],
                 pair=("defended", FLAG),
                 where=lambda r: r["adversary"] == "none"),
    ],
    "each_algorithm_has": [
        ("clean baseline", lambda r: r["adversary"] == "none"),
        ("adversarial rows", lambda r: r["adversary"] != "none"),
    ],
    "witness": byzantine_witness,
    "degrade": lambda rows: [
        r.update(macro_f1="0") for r in rows
        if r["adversary"] == "label_flip" and r["defended"] == "1"
        and num(r, "malicious_fraction") == 0.3],
}


# DRIFT1: drift scenario x retrain policy x loss x churn (bench_drift).
SUDDEN_SCENARIOS = ("sudden_vocab", "new_tag")


def drift_witness(rows):
    """Some sudden-drift group at >= 20 % loss has a retraining policy that
    re-converges within 2 macro-F1 points of its pre-drift level while the
    frozen arm stays >= 5 points degraded."""
    witnesses = []
    for r in rows:
        if (r["scenario"] not in SUDDEN_SCENARIOS
                or num(r, "loss_rate") < 0.2 or r["policy"] == "frozen"):
            continue
        frozen = find(rows, algorithm=r["algorithm"], scenario=r["scenario"],
                      loss_rate=r["loss_rate"], churn=r["churn"],
                      policy="frozen")
        if frozen is None:
            continue
        reconverged = (r["reconverged"] == "1" or num(r, "final_f1")
                       >= num(r, "pre_drift_f1") - 0.02)
        stuck = (num(frozen, "final_f1")
                 <= num(frozen, "pre_drift_f1") - 0.05)
        if reconverged and stuck:
            witnesses.append(r)
    if witnesses:
        return []
    return ["acceptance: no sudden-drift scenario at >= 20% loss where a "
            "retraining policy re-converges while the frozen arm stays "
            ">= 0.05 degraded"]


SPECS["drift"] = {
    "columns": [
        "algorithm", "scenario", "policy", "loss_rate", "churn", "num_epochs",
        "first_drift_epoch", "pre_drift_f1", "min_post_drift_f1", "final_f1",
        "max_dip", "recovery_epochs", "reconverged", "retrains",
        "drift_detections", "give_ups", "suspected_peers", "total_messages",
        "total_bytes", "fingerprint"],
    "enums": {"algorithm": ALGORITHMS, "churn": FLAG, "reconverged": FLAG,
              "scenario": ["none", "sudden_vocab", "gradual_rotation",
                           "popularity_spike", "new_tag"],
              "policy": ["frozen", "periodic", "staleness", "drift"]},
    "unit": ["loss_rate", "pre_drift_f1", "min_post_drift_f1", "final_f1"],
    "counts": ["num_epochs", "first_drift_epoch", "recovery_epochs",
               "retrains", "drift_detections", "give_ups", "suspected_peers",
               "total_messages", "total_bytes"],
    "nonnegative": ["max_dip"],
    "rules": [
        FINGERPRINT,
        rule("recovery_epochs <= num_epochs",
             lambda r: cnt(r, "recovery_epochs") <= cnt(r, "num_epochs"),
             lambda r: setv(r, recovery_epochs=cnt(r, "num_epochs") + 1)),
        rule("reconverged iff recovery_epochs < num_epochs",
             lambda r: ((r["reconverged"] == "1")
                        == (cnt(r, "recovery_epochs") < cnt(r, "num_epochs"))),
             lambda r: setv(r, reconverged=1 - cnt(r, "reconverged"))),
        rule("a stationary row drifts after the run",
             lambda r: cnt(r, "first_drift_epoch") >= cnt(r, "num_epochs"),
             lambda r: setv(r, first_drift_epoch=0),
             when=lambda r: r["scenario"] == "none"),
        rule("frozen arms never retrain",
             lambda r: cnt(r, "retrains") == 0,
             lambda r: setv(r, retrains=1),
             when=lambda r: r["policy"] == "frozen"),
        # Lossy stationary rows MAY retrain: loss erodes CEMPaR's serving
        # quality, the detector reads that as drift, and the republish
        # repairs it.
        rule("a lossless stationary non-periodic arm never retrains",
             lambda r: cnt(r, "retrains") == 0,
             lambda r: setv(r, retrains=1),
             when=lambda r: (r["scenario"] == "none"
                             and r["policy"] != "periodic"
                             and num(r, "loss_rate") == 0.0)),
    ],
    "identities": [
        # Idle drift machinery is invisible: the armed detector changes
        # nothing unless it fires.
        identity("stationary zero-retrain arms share one fingerprint",
                 key=["algorithm", "loss_rate", "churn"],
                 agree=["fingerprint"],
                 where=lambda r: (r["scenario"] == "none"
                                  and r["policy"] != "periodic"
                                  and cnt(r, "retrains") == 0)),
    ],
    "each_algorithm_has": [
        ("stationary rows", lambda r: r["scenario"] == "none"),
        ("drift scenario rows", lambda r: r["scenario"] != "none"),
    ],
    "witness": drift_witness,
    "degrade": lambda rows: [r.update(final_f1=r["pre_drift_f1"]) for r in rows
                             if r["policy"] == "frozen"],
}


# OVER1: offered load x burst x arm x algorithm (bench_overload).


def overload_witness(rows):
    """Some flash point drives the undefended arm past the SLO (p95 above
    slo_s, or > 5 % failed) while the defended arm sustains >= 2x its
    goodput within the SLO."""
    witnesses = []
    for r in rows:
        if r["burst"] != "flash" or r["arm"] != "undefended":
            continue
        defended = find(rows, algorithm=r["algorithm"], burst="flash",
                        arrival_rate=r["arrival_rate"],
                        burst_multiplier=r["burst_multiplier"],
                        arm="defended")
        if defended is None:
            continue
        offered = cnt(r, "offered")
        fail_rate = cnt(r, "failed") / offered if offered else 0.0
        past_slo = num(r, "p95_s") > num(r, "slo_s") or fail_rate > 0.05
        if past_slo and (num(defended, "goodput_within_slo")
                         >= 2.0 * num(r, "goodput_within_slo")):
            witnesses.append(r)
    if witnesses:
        return []
    return ["acceptance: no flash point where the undefended arm is past "
            "the SLO (or > 5% failed) while the defended arm sustains >= 2x "
            "its goodput within the SLO"]


SPECS["overload"] = {
    "columns": [
        "algorithm", "arm", "burst", "arrival_rate", "burst_multiplier",
        "offered", "completed", "ok", "degraded", "cached", "failed", "shed",
        "retries", "within_slo", "goodput_within_slo", "shed_rate",
        "cache_hit_rate", "p50_s", "p95_s", "p99_s", "slo_s", "give_ups",
        "fingerprint"],
    "enums": {"algorithm": ALGORITHMS, "arm": ["undefended", "defended"],
              "burst": ["disarmed", "none", "flash"]},
    "unit": ["cache_hit_rate"],
    "counts": ["offered", "completed", "ok", "degraded", "cached", "failed",
               "shed", "retries", "within_slo", "give_ups"],
    # shed_rate may exceed 1: transport retries can shed one request twice.
    "nonnegative": ["arrival_rate", "goodput_within_slo", "shed_rate",
                    "p50_s", "p95_s", "p99_s", "slo_s"],
    "rules": [
        OUTCOMES, WITHIN_SLO, QUANTILES, FINGERPRINT,
        # No admission control to reject, no typed overload to retry on.
        rule("undefended arms never shed, retry or give up",
             lambda r: (cnt(r, "shed") == 0 and cnt(r, "retries") == 0
                        and cnt(r, "give_ups") == 0),
             lambda r: setv(r, shed=1),
             when=lambda r: r["arm"] == "undefended"),
        rule("disarmed rows offer no load",
             lambda r: num(r, "arrival_rate") == 0.0,
             lambda r: setv(r, arrival_rate=1),
             when=lambda r: r["burst"] == "disarmed"),
    ],
    "identities": [
        # Idle overload machinery changes no prediction.
        identity("the disarmed pair shares one fingerprint",
                 key=["algorithm"], agree=["fingerprint"],
                 pair=("arm", ["undefended", "defended"]),
                 where=lambda r: r["burst"] == "disarmed"),
    ],
    "each_algorithm_has": [
        ("disarmed pair", lambda r: r["burst"] == "disarmed"),
        ("flash-burst rows", lambda r: r["burst"] == "flash"),
    ],
    "witness": overload_witness,
    "degrade": lambda rows: [
        r.update(goodput_within_slo="0") for r in rows
        if r["burst"] == "flash" and r["arm"] == "defended"],
}


# SVC1: socket replay, clean vs faulted (bench_service).
SLO_SECONDS = 1.0


def service_witness(rows):
    """The clean arm's p95 is within the SLO and the faulted arm's within
    4x the clean arm's: abuse does not wreck well-behaved clients' tail."""
    errors = []
    for algo in algorithms(rows):
        clean = find(rows, algorithm=algo, arm="clean")
        faulted = find(rows, algorithm=algo, arm="faulted")
        if clean is None or faulted is None:
            continue  # the identity pair already reports it
        clean_p95, faulted_p95 = num(clean, "p95_s"), num(faulted, "p95_s")
        if clean_p95 > SLO_SECONDS:
            errors.append(f"acceptance: {algo} clean p95 {clean_p95:.4f}s "
                          f"over the {SLO_SECONDS}s SLO")
        if faulted_p95 > max(4.0 * clean_p95, SLO_SECONDS):
            errors.append(f"acceptance: {algo} faulted p95 "
                          f"{faulted_p95:.4f}s more than 4x the clean "
                          f"arm's {clean_p95:.4f}s")
    return errors


SPECS["service"] = {
    "columns": [
        "algorithm", "arm", "offered", "completed", "ok", "degraded",
        "cached", "failed", "shed", "retries", "within_slo", "io_errors",
        "p50_s", "p95_s", "p99_s", "achieved_rate", "wall_s", "train_wall_s",
        "fingerprint", "daemon_accepted", "daemon_requests",
        "daemon_malformed", "daemon_oversized", "daemon_reaped_idle",
        "daemon_read_errors", "daemon_slow_consumer_closed",
        "drain_completed", "fault_resets", "fault_stalls_reaped",
        "fault_typed_errors", "fault_predicts_ok", "fault_liveness_ok"],
    "enums": {"algorithm": ALGORITHMS, "arm": ["clean", "faulted"],
              "drain_completed": FLAG, "fault_liveness_ok": FLAG},
    "unit": [],
    "counts": ["offered", "completed", "ok", "degraded", "cached", "failed",
               "shed", "retries", "within_slo", "io_errors",
               "daemon_accepted", "daemon_requests", "daemon_malformed",
               "daemon_oversized", "daemon_reaped_idle", "daemon_read_errors",
               "daemon_slow_consumer_closed", "fault_resets",
               "fault_stalls_reaped", "fault_typed_errors",
               "fault_predicts_ok"],
    "nonnegative": ["p50_s", "p95_s", "p99_s", "achieved_rate", "wall_s",
                    "train_wall_s"],
    "rules": [
        OUTCOMES, WITHIN_SLO, QUANTILES, FINGERPRINT,
        rule("the replay offers requests",
             lambda r: cnt(r, "offered") > 0,
             lambda r: setv(r, offered=0, completed=0, ok=0, degraded=0,
                            cached=0, failed=0, within_slo=0)),
        # Faults or no faults, the daemon answers everything offered and
        # finishes its graceful drain.
        rule("no replay request fails and no connection is lost",
             lambda r: cnt(r, "failed") == 0 and cnt(r, "io_errors") == 0,
             lambda r: setv(r, io_errors=1)),
        rule("the graceful drain completes",
             lambda r: r["drain_completed"] == "1",
             lambda r: setv(r, drain_completed=0)),
        rule("a clean arm sees no malformed frames or resets",
             lambda r: (cnt(r, "daemon_malformed") == 0
                        and cnt(r, "daemon_read_errors") == 0),
             lambda r: setv(r, daemon_malformed=1),
             when=lambda r: r["arm"] == "clean"),
        rule("a faulted arm delivers resets, typed errors and reaped "
             "stalls, and passes the liveness probe",
             lambda r: (cnt(r, "fault_resets") > 0
                        and cnt(r, "fault_typed_errors") > 0
                        and cnt(r, "fault_stalls_reaped") > 0
                        and cnt(r, "daemon_reaped_idle")
                        >= cnt(r, "fault_stalls_reaped")
                        and r["fault_liveness_ok"] == "1"),
             lambda r: setv(r, fault_resets=0),
             when=lambda r: r["arm"] == "faulted"),
    ],
    "identities": [
        # Socket-level abuse changes no prediction.
        identity("clean and faulted arms share one fingerprint",
                 key=["algorithm"], agree=["fingerprint"],
                 pair=("arm", ["clean", "faulted"])),
    ],
    "witness": service_witness,
    "degrade": lambda rows: [r.update(p95_s="2", p99_s="2") for r in rows
                             if r["arm"] == "clean"],
}


def algorithms(rows):
    return sorted({r["algorithm"] for r in rows})


def find(rows, **match):
    """First row whose columns equal `match` (floats compare numerically)."""
    for r in rows:
        if all((num(r, k) == v) if isinstance(v, float) else r[k] == v
               for k, v in match.items()):
            return r
    return None


def validate(spec, header, rows, strict):
    """Returns one message per violation (empty when the table passes)."""
    if header != spec["columns"]:
        return [f"header mismatch: got {header}"]
    if not rows:
        return ["no data rows"]
    errors = []
    for i, r in enumerate(rows):
        where = f"row {i + 2}"
        for col, allowed in spec["enums"].items():
            if r[col] not in allowed:
                errors.append(f"{where}: unknown {col} {r[col]!r}")
        try:
            for col in spec["unit"]:
                if not 0.0 <= num(r, col) <= 1.0:
                    errors.append(f"{where}: {col}={r[col]} outside [0, 1]")
            for col in spec["counts"]:
                if not re.fullmatch(r"\d+", r[col]):
                    errors.append(f"{where}: {col}={r[col]} is not a "
                                  "non-negative integer")
            for col in spec["nonnegative"]:
                if not num(r, col) >= 0.0:
                    errors.append(f"{where}: {col}={r[col]} is negative")
            for ru in spec["rules"]:
                if ru["when"](r) and not ru["then"](r):
                    errors.append(f"{where}: violates '{ru['text']}'")
        except ValueError as e:
            errors.append(f"{where}: unparsable value ({e})")
    if errors:
        return errors  # group checks assume well-formed rows

    for ident in spec["identities"]:
        for key, group in groups(ident, rows).items():
            label = f"'{ident['text']}' for {'/'.join(key)}"
            pair = ident["pair"]
            if pair and sorted(r[pair[0]] for r in group) != sorted(pair[1]):
                errors.append(f"{label}: expected one row per {pair[0]} in "
                              f"{pair[1]}, got "
                              f"{sorted(r[pair[0]] for r in group)}")
            for col in agreed_columns(ident, spec):
                if len({r[col] for r in group}) > 1:
                    errors.append(f"{label}: rows disagree on {col} "
                                  f"{sorted({r[col] for r in group})}")
    for con in spec.get("contrasts", []):
        for r, base in contrasted(con, rows):
            label = f"'{con['text']}' for {'/'.join(r[k] for k in con['key'])}"
            if base is None:
                errors.append(f"{label}: no base row")
            elif all(r[c] == base[c] for c in contrasted_columns(con, spec)):
                errors.append(f"{label}: {r['plan']} row equals its base")
    for text, pred in spec.get("each_algorithm_has", []):
        for algo in algorithms(rows):
            if not any(r["algorithm"] == algo and pred(r) for r in rows):
                errors.append(f"{algo}: has no {text}")
    if strict and not errors:
        errors += spec["witness"](rows)
    return errors


def groups(ident, rows):
    out = {}
    for r in rows:
        if ident["where"](r):
            out.setdefault(tuple(r[k] for k in ident["key"]), []).append(r)
    return out


def agreed_columns(ident, spec):
    if ident["agree"] is not None:
        return ident["agree"]
    pair_col = ident["pair"][0] if ident["pair"] else None
    return [c for c in spec["columns"]
            if c != pair_col and c not in ident["key"]]


def contrasted(con, rows):
    """(row, its base row or None) for every row the contrast checks."""
    bases = {tuple(r[k] for k in con["key"]): r for r in rows
             if con["base"](r)}
    return [(r, bases.get(tuple(r[k] for k in con["key"])))
            for r in rows if con["where"](r)]


def contrasted_columns(con, spec):
    return [c for c in spec["columns"]
            if c not in con["key"] and c not in spec["enums"]]


def load(path):
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        rows = [dict(zip(header, values)) for values in reader]
    return header, rows


def spec_for(path):
    stem = os.path.splitext(os.path.basename(path))[0]
    return SPECS.get(stem), stem


def check_file(path, strict):
    spec, stem = spec_for(path)
    if spec is None:
        print(f"{path}: no spec for '{stem}' (known: {', '.join(SPECS)})",
              file=sys.stderr)
        return 2
    header, rows = load(path)
    errors = validate(spec, header, rows, strict)
    for msg in errors:
        print(f"FAIL: {path}: {msg}")
    if errors:
        return 1
    print(f"OK: {path} passes the {stem} spec"
          + (" (strict)" if strict else ""))
    return 0


def perturb(value):
    """A different value that still passes every per-row check."""
    if HEX16.fullmatch(value):
        return value[:-1] + ("0" if value[-1] != "0" else "1")
    if re.fullmatch(r"\d+", value):
        return str(int(value) + 1)
    return str(float(value) / 2) if float(value) != 0.0 else "0.5"


def corruptions(spec, header, rows):
    """Yields (label, header, rows, strict, expected message) per entry."""
    def edited(edit):
        cols, table = list(header), copy.deepcopy(rows)
        edit(cols, table)
        return cols, table

    def first(table, pred):
        return next((r for r in table if pred(r)), None)

    yield ("dropped column", *edited(
        lambda c, t: [c.pop()] + [r.pop(header[-1]) for r in t]),
        False, "header mismatch")
    for cols, bad, expect in ((spec["enums"], "bogus", "unknown {}"),
                              (spec["unit"], "1.5", "{}=1.5 outside"),
                              (spec["counts"] + spec["nonnegative"], "-1",
                               "{}=-1")):
        for col in cols:
            yield (f"{col}={bad}", *edited(
                lambda c, t, col=col, bad=bad: t[0].update({col: bad})),
                False, expect.format(col))
    for ru in spec["rules"]:
        def break_rule(c, t, ru=ru):
            row = first(t, ru["when"])
            if row is None:
                raise LookupError(f"no row exercises '{ru['text']}'")
            ru["corrupt"](row)
        yield (f"rule '{ru['text']}'", *edited(break_rule), False,
               f"violates '{ru['text']}'")
    for ident in spec["identities"]:
        def perturb_member(c, t, ident=ident):
            group = next((g for g in groups(ident, t).values()
                          if len(g) > 1), None)
            if group is None:
                raise LookupError(f"no group exercises '{ident['text']}'")
            col = next(c for c in agreed_columns(ident, spec)
                       if c not in spec["enums"])
            group[-1][col] = perturb(group[-1][col])
        yield (f"identity '{ident['text']}'", *edited(perturb_member), False,
               f"'{ident['text']}'")
    for con in spec.get("contrasts", []):
        def copy_base(c, t, con=con):
            pair = next(((r, b) for r, b in contrasted(con, t)
                         if b is not None), None)
            if pair is None:
                raise LookupError(f"no row exercises '{con['text']}'")
            row, base = pair
            row.update({k: base[k] for k in contrasted_columns(con, spec)})
        yield (f"contrast '{con['text']}'", *edited(copy_base), False,
               f"'{con['text']}'")
    for text, pred in spec.get("each_algorithm_has", []):
        def drop_rows(c, t, pred=pred):
            algo = t[0]["algorithm"]
            t[:] = [r for r in t if not (r["algorithm"] == algo and pred(r))]
        yield (f"missing {text}", *edited(drop_rows), False, f"has no {text}")
    yield ("degraded witness", *edited(lambda c, t: spec["degrade"](t)),
           True, "acceptance")


def selfcheck(results_dir):
    failures = 0
    for stem, spec in SPECS.items():
        path = os.path.join(results_dir, stem + ".csv")
        header, rows = load(path)
        errors = validate(spec, header, rows, strict=True)
        if errors:
            failures += 1
            print(f"selfcheck FAIL: committed {path} does not pass --strict:")
            for msg in errors:
                print(f"  {msg}")
            continue
        checked = 0
        try:
            for label, cols, table, strict, expect in corruptions(
                    spec, header, rows):
                if strict and validate(spec, cols, table, strict=False):
                    failures += 1
                    print(f"selfcheck FAIL: {stem}: {label} broke more than "
                          "the witness")
                errors = validate(spec, cols, table, strict)
                if not any(expect in msg for msg in errors):
                    failures += 1
                    print(f"selfcheck FAIL: {stem}: {label} was not caught "
                          f"(expected '{expect}', got {errors[:3]})")
                checked += 1
        except LookupError as e:
            failures += 1
            print(f"selfcheck FAIL: {stem}: {e}")
        print(f"selfcheck {stem}: committed CSV passes --strict; "
              f"{checked} corruptions checked")
    if failures:
        print(f"selfcheck FAIL: {failures} problem(s)")
        return 1
    print("selfcheck OK: every committed CSV passes and every corruption "
          "is caught")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("csv", nargs="?")
    parser.add_argument("--strict", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if args.selfcheck == (args.csv is not None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.selfcheck:
            return selfcheck(os.path.join(
                os.path.dirname(os.path.abspath(__file__)), os.pardir,
                "bench_results"))
        return check_file(args.csv, args.strict)
    except OSError as e:
        print(f"cannot read: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
