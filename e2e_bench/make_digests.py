"""Regenerate ``expected_digests.json``, the benchmark's output check.

Run from the repository root after a change that is *meant* to alter
simulated or characterized bytes (a ``*_VERSION`` bump)::

    python3 e2e_bench/make_digests.py

It computes every expected output the benchmark checks through the same
public calls the workloads make: each cold-build benchmark's MICA and
HPC float64 vectors, every warm-service response body, and the
analysis report's GA-selected indices and fig6 cluster labels.
"""

from __future__ import annotations

import json

import harness
import workloads
from workloads import (
    DEFAULT_CONFIG, WORK, build_dataset, clear_code_cache,
    clear_dataset_cache, run_all,
)


def cold_build_digests() -> dict:
    table = {}
    directory = WORK / "digests"
    for benchmark in workloads.cold_subset():
        clear_code_cache()
        clear_dataset_cache(harness.ensure_empty_dir(directory))
        dataset = build_dataset(
            DEFAULT_CONFIG, benchmarks=[benchmark], cache_dir=directory,
            jobs=1,
        )
        table[benchmark.full_name] = {
            "mica": workloads.vector_digest(dataset.mica[0]),
            "hpc": workloads.vector_digest(dataset.hpc[0]),
        }
    return table


def warm_service_digests() -> dict:
    from repro.service import CharacterizationService, ServiceSettings

    directory = harness.ensure_empty_dir(WORK / "digests")
    service = CharacterizationService(
        DEFAULT_CONFIG, ServiceSettings(cache_dir=directory)
    ).start()
    table = {}
    try:
        for benchmark in workloads.service_population():
            for kind in ("characterize", "hpc", "phases"):
                body = dict(
                    workloads.request_body(kind, benchmark.full_name),
                    wait=True,
                )
                status, payload, _ = service.handle(
                    "POST", f"/v1/{kind}", body=body
                )
                if status != 200:
                    raise RuntimeError(f"{kind} {benchmark}: {payload}")
                table[f"{kind}/{benchmark.full_name}"] = (
                    workloads.payload_digest(payload)
                )
    finally:
        service.begin_drain()
        service.drain(5.0)
    return table


def analysis_report_digests() -> dict:
    directory = WORK / "digests"
    clear_code_cache()
    clear_dataset_cache(harness.ensure_empty_dir(directory))
    dataset = build_dataset(
        workloads.analysis_config(), cache_dir=directory, jobs=2
    )
    return workloads.report_digests(
        run_all(workloads.analysis_config(), dataset=dataset)
    )


def main() -> None:
    table = {
        "cold-build": cold_build_digests(),
        "warm-service": warm_service_digests(),
        "analysis-report": analysis_report_digests(),
    }
    harness.ensure_empty_dir(WORK / "digests").rmdir()
    with open(workloads.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {workloads.DIGESTS.name}: "
          + ", ".join(f"{len(rows)} {name}" for name, rows in table.items()))


if __name__ == "__main__":
    main()
