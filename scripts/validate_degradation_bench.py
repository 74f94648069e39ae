#!/usr/bin/env python3
"""Schema check for bench_degradation --json output.

The degradation bench emits one row per permanent bank-failure rate so
the availability / throughput-vs-fault-rate curves stay
machine-comparable across PRs. ctest runs this after the --smoke campaign
to catch schema drift (a renamed key silently breaks trend tooling)
and semantic nonsense: an availability outside [0, 1], a cell that
quarantined more banks than failed, a clean cell that migrated, a
PIM-offline cell with no capacity-floor fallbacks, or per-cause GPU
fallback counters that disagree with the escalation ladder.

Usage: validate_degradation_bench.py [path]  (default: BENCH_degradation.json)
Exits 0 when the document conforms, 1 with a message per violation.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_common import NUMBER, check_bench_name, check_required, run

TOP_LEVEL_REQUIRED = {
    "bench": str,
    "trials": NUMBER,
    "repeats": NUMBER,
    "fault_seed": NUMBER,
    "config.health_enabled": str,
    "config.checkpoint_enabled": str,
    "config.checksum_enabled": str,
    "rows": list,
}

ROW_REQUIRED = {
    "permanent_bank_rate": NUMBER,
    "failed_banks": NUMBER,
    "quarantined_banks": NUMBER,
    "migrations": NUMBER,
    "rollbacks": NUMBER,
    "availability": NUMBER,
    "capacity_fraction": NUMBER,
    "throughput_vs_healthy": NUMBER,
    "pim_offline_rate": NUMBER,
    "gpu_fallbacks_retry_exhausted": NUMBER,
    "gpu_fallbacks_uncheckpointed": NUMBER,
    "gpu_fallbacks_capacity_floor": NUMBER,
}


def validate(doc):
    errors = []
    if not check_required(doc, TOP_LEVEL_REQUIRED, errors):
        return errors

    check_bench_name(doc, ("degradation", "degradation_smoke"), errors)
    # The campaign is meaningless with the escalation ladder off.
    for key in ("config.health_enabled", "config.checkpoint_enabled",
                "config.checksum_enabled"):
        if doc[key] != "true":
            errors.append(f"{key} is '{doc[key]}' — the campaign must "
                          "run with the full escalation ladder on")
    if not doc["rows"]:
        errors.append("no campaign rows")

    rates = []
    for i, row in enumerate(doc["rows"]):
        if not check_required(row, ROW_REQUIRED, errors, f"row {i}"):
            continue
        rates.append(row["permanent_bank_rate"])

        for key in ("availability", "capacity_fraction",
                    "pim_offline_rate"):
            if not 0.0 <= row[key] <= 1.0:
                errors.append(f"row {i}: {key}={row[key]} outside [0,1]")
        if row["throughput_vs_healthy"] <= 0:
            errors.append(f"row {i}: throughput_vs_healthy must be "
                          "positive")
        for key in ("failed_banks", "quarantined_banks", "migrations",
                    "rollbacks", "gpu_fallbacks_retry_exhausted",
                    "gpu_fallbacks_uncheckpointed",
                    "gpu_fallbacks_capacity_floor"):
            if row[key] < 0:
                errors.append(f"row {i}: {key} is negative")

        # Quarantine can only remove banks that actually failed, and a
        # quarantine implies at least one migration.
        if row["quarantined_banks"] > row["failed_banks"]:
            errors.append(f"row {i}: quarantined more banks "
                          f"({row['quarantined_banks']}) than failed "
                          f"({row['failed_banks']})")
        if row["quarantined_banks"] > 0 and row["migrations"] == 0:
            errors.append(f"row {i}: banks quarantined with zero "
                          "migrations")
        if row["permanent_bank_rate"] == 0:
            for key in ("failed_banks", "quarantined_banks",
                        "migrations", "gpu_fallbacks_capacity_floor"):
                if row[key] != 0:
                    errors.append(f"row {i}: clean cell has nonzero "
                                  f"{key}={row[key]}")
            if row["availability"] != 1:
                errors.append(f"row {i}: clean cell availability "
                              f"{row['availability']} != 1")
        # Offline trials redirect PIM segments to the GPU, so a fully
        # offline cell must report capacity-floor fallbacks.
        if (row["pim_offline_rate"] == 1
                and row["gpu_fallbacks_capacity_floor"] == 0):
            errors.append(f"row {i}: PIM offline in every trial but no "
                          "capacity-floor GPU fallbacks")

    if rates != sorted(rates):
        errors.append("rows not sorted by permanent_bank_rate")
    if len(set(rates)) != len(rates):
        errors.append("duplicate permanent_bank_rate rows")

    return errors


def summary(doc):
    worst = doc["rows"][-1]
    return (f"{len(doc['rows'])} rows, worst cell rate "
            f"{worst['permanent_bank_rate']} -> availability "
            f"{worst['availability']:.2f}, capacity "
            f"{worst['capacity_fraction']:.3f}")


if __name__ == "__main__":
    sys.exit(run("validate_degradation_bench", "BENCH_degradation.json",
                 validate, summary))
