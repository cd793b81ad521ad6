"""Building, submitting and collecting campaigns (``repro submit``).

Submissions are built through the same generator ``run_section6`` runs
locally (:func:`repro.experiments.iter_section6_campaigns`), so a
campaign executed by a worker fleet is *the same campaign* — same error
sets, same cases, same seed derivation, same journal fingerprint — as a
local ``repro figures --jobs 1`` run.  That identity is what makes the
acceptance criterion checkable at all: the merged journal the broker
serves back must be bit-identical to the local serial journal.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass

from ..experiments import ExperimentConfig
from ..experiments.campaign6 import FAULT_CLASSES, iter_section6_campaigns
from ..orchestrator.journal import MANIFEST_NAME, RUNS_NAME, campaign_fingerprint
from .client import BrokerClient, BrokerUnavailable
from .protocol import CampaignBundle, CampaignOptions
from .state import CAMPAIGN_RUNNING


@dataclass
class Submission:
    """One campaign ready for (or returned from) submission."""

    label: str
    journal_name: str
    fingerprint: dict
    options: CampaignOptions
    bundle: CampaignBundle
    campaign_id: str | None = None
    state: str | None = None

    @property
    def total_runs(self) -> int:
        return self.bundle.total_runs


def build_submissions(
    config: ExperimentConfig | None = None,
    *,
    programs: list[str] | None = None,
    classes: tuple[str, ...] = FAULT_CLASSES,
    shard_size: int | None = None,
    engine: str = "simple",
    snapshot: str = "off",
    trace: bool = False,
) -> list[Submission]:
    """Build the §6 campaigns as service submissions (machine tier)."""
    config = config or ExperimentConfig()
    submissions: list[Submission] = []
    for spec in iter_section6_campaigns(config, programs=programs, classes=classes):
        runner = spec.runner
        runner.calibrate()
        faults = tuple(spec.error_set.faults)
        fingerprint = campaign_fingerprint(
            program=runner.compiled.name,
            seed=spec.seed,
            fault_ids=[fault.fault_id for fault in faults],
            case_ids=[case.case_id for case in runner.cases],
        )
        submissions.append(Submission(
            label=spec.label,
            journal_name=spec.journal_name,
            fingerprint=fingerprint,
            options=CampaignOptions(
                seed=spec.seed,
                shard_size=shard_size,
                engine=engine,
                snapshot=snapshot,
                trace=trace,
                label=spec.label,
            ),
            bundle=CampaignBundle(
                program=runner.compiled.name,
                executable=runner.compiled.executable,
                faults=faults,
                cases=tuple(runner.cases),
                budgets=dict(runner.budgets),
                num_cores=runner.num_cores,
                quantum=runner.quantum,
            ),
        ))
    return submissions


def submit_campaign(client: BrokerClient, submission: Submission) -> dict:
    """Submit (idempotently) and stamp the broker's reply onto it."""
    reply = client.submit(
        submission.fingerprint,
        submission.options.to_dict(),
        submission.bundle.to_blob(),
    )
    submission.campaign_id = reply["campaign_id"]
    submission.state = reply["state"]
    return reply


def wait_for_campaign(
    client: BrokerClient,
    campaign_id: str,
    *,
    poll: float = 0.3,
    timeout: float | None = None,
    progress=None,
    unavailable_grace: float = 60.0,
) -> dict:
    """Follow a campaign to completion; returns its final snapshot.

    Prefers the broker's streaming endpoint and falls back to polling;
    rides out broker restarts for up to *unavailable_grace* seconds of
    continuous unreachability.  *progress* is called with every snapshot.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    last_seen = time.monotonic()
    while True:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError(
                f"campaign {campaign_id} still running after {timeout:.1f}s"
            )
        try:
            for snapshot in client.stream(campaign_id):
                last_seen = time.monotonic()
                if progress is not None:
                    progress(snapshot)
                if snapshot.get("state") != CAMPAIGN_RUNNING:
                    return snapshot
                if deadline is not None and time.monotonic() > deadline:
                    break
            # Stream ended without a terminal state (broker stopping or
            # connection recycled): fall through to re-check via status.
            snapshot = client.status(campaign_id)
            if snapshot.get("state") != CAMPAIGN_RUNNING:
                if progress is not None:
                    progress(snapshot)
                return snapshot
        except BrokerUnavailable:
            if time.monotonic() - last_seen > unavailable_grace:
                raise
            time.sleep(poll)


def _riding_out_restarts(fn, *, grace: float = 60.0, poll: float = 0.3):
    """Call *fn*, retrying :class:`BrokerUnavailable` for *grace* seconds.

    A broker restart mid-campaign must look like a slow network to the
    submit client, exactly as it does to the worker fleet.
    """
    deadline = time.monotonic() + grace
    while True:
        try:
            return fn()
        except BrokerUnavailable:
            if time.monotonic() >= deadline:
                raise
            time.sleep(poll)


def download_journal(
    client: BrokerClient, campaign_id: str, directory: str
) -> dict[str, str]:
    """Download the merged canonical journal into *directory* verbatim.

    The bytes are written exactly as served — the whole point is that
    they are bit-identical to a local serial journal, so any rewrite
    here (re-serialisation, newline handling) would defeat the check.
    """
    os.makedirs(directory, exist_ok=True)
    paths: dict[str, str] = {}
    for name in (MANIFEST_NAME, RUNS_NAME):
        payload = _riding_out_restarts(
            lambda name=name: client.fetch_journal_file(campaign_id, name)
        )
        path = os.path.join(directory, name)
        with open(path, "wb") as handle:
            handle.write(payload)
        paths[name] = path
    return paths


def render_progress_line(snapshot: dict) -> str:
    """One human-readable telemetry line for the submit CLI."""
    return (
        f"{snapshot.get('label', snapshot.get('campaign_id', '?'))}: "
        f"{snapshot.get('completed_runs', 0)}/{snapshot.get('total_runs', 0)} runs  "
        f"(shards pending={snapshot.get('shards_pending', 0)} "
        f"leased={snapshot.get('shards_leased', 0)}, "
        f"leases={snapshot.get('leases_granted', 0)}, "
        f"expiries={snapshot.get('lease_expiries', 0)}) "
        f"[{snapshot.get('state', '?')}]"
    )


def run_submit(
    broker_url: str,
    *,
    config: ExperimentConfig | None = None,
    programs: list[str] | None = None,
    classes: tuple[str, ...] = FAULT_CLASSES,
    shard_size: int | None = None,
    engine: str = "simple",
    snapshot: str = "off",
    trace: bool = False,
    journal_dir: str | None = None,
    wait: bool = True,
    timeout: float | None = None,
    quiet: bool = False,
    stream=None,
) -> int:
    """The ``repro submit`` entry point; returns a process exit code."""
    stream = stream if stream is not None else sys.stderr
    client = BrokerClient(broker_url)
    client.ping()
    submissions = build_submissions(
        config,
        programs=programs,
        classes=classes,
        shard_size=shard_size,
        engine=engine,
        snapshot=snapshot,
        trace=trace,
    )
    if not submissions:
        print("error: no campaigns matched the requested programs",
              file=sys.stderr)
        return 1
    exit_code = 0
    for submission in submissions:
        reply = _riding_out_restarts(
            lambda submission=submission: submit_campaign(client, submission)
        )
        verb = "resumed" if reply.get("resumed") else "submitted"
        if not quiet:
            print(
                f"{verb} {submission.label} as campaign "
                f"{submission.campaign_id} ({submission.total_runs} runs)",
                file=stream,
            )
        if not wait:
            continue
        progress = None
        if not quiet:
            progress = lambda snap: print(  # noqa: E731
                "  " + render_progress_line(snap), file=stream
            )
        final = wait_for_campaign(
            client, submission.campaign_id, timeout=timeout, progress=progress
        )
        if final.get("state") != "complete":
            print(
                f"error: campaign {submission.label} finished in state "
                f"{final.get('state')!r} with "
                f"{final.get('failed_runs', '?')} failed runs",
                file=sys.stderr,
            )
            exit_code = 1
        if journal_dir is not None:
            target = os.path.join(journal_dir, submission.journal_name)
            download_journal(client, submission.campaign_id, target)
            if not quiet:
                print(f"  merged journal -> {target}", file=stream)
    return exit_code
