"""Root-cause SQL identification (paper Section VI).

Pipeline: cluster templates by their ``#execution`` trends (plus the
performance metrics as temporary graph nodes) → rank clusters by the
highest H-SQL impact they contain → select clusters with the cumulative
correlation threshold → verify candidates against their history trends
(Tukey's rule) → rank the survivors by the correlation of their
execution counts with the instance active session.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from repro.collection.aggregator import TemplateMetricStore
from repro.core.case import AnomalyCase
from repro.core.hsql import HsqlRanking
from repro.core.session_estimation import SessionEstimate
from repro.telemetry import Tracer, get_tracer
from repro.timeseries import TukeyDetector, pearson

__all__ = ["Cluster", "RsqlResult", "RsqlIdentifier"]


@dataclass
class Cluster:
    """One business cluster of templates."""

    sql_ids: list[str]
    impact: float = float("-inf")

    def __len__(self) -> int:
        return len(self.sql_ids)


@dataclass
class RsqlResult:
    """Ranked R-SQL identification result with diagnostics."""

    ranked: list[tuple[str, float]]        # (sql_id, final score), descending
    clusters: list[Cluster] = field(default_factory=list)
    selected_clusters: int = 0
    candidates: list[str] = field(default_factory=list)
    verified: list[str] = field(default_factory=list)
    #: Whether the candidate set had to be widened to the full top-Kc
    #: clusters because verification rejected every initial candidate.
    widened: bool = False
    #: Wall-clock seconds: clustering + cluster selection, and history
    #: verification + final ranking (the paper reports both).
    clustering_seconds: float = 0.0
    verification_seconds: float = 0.0

    @property
    def ranked_ids(self) -> list[str]:
        return [sql_id for sql_id, _ in self.ranked]


class RsqlIdentifier:
    """Implements the clustering-based R-SQL selection."""

    def __init__(
        self,
        cluster_threshold: float = 0.8,
        clustering_interval_s: int = 60,
        use_metric_temp_nodes: bool = True,
        max_clusters: int = 5,
        cumulative_threshold: float = 0.95,
        use_cumulative_threshold: bool = True,
        use_direct_cause_ranking: bool = True,
        use_history_verification: bool = True,
        history_days: tuple[int, ...] = (1, 3, 7),
        tukey_k: float = 3.0,
        tracer: Tracer | None = None,
    ) -> None:
        self.tracer = tracer or get_tracer()
        self.cluster_threshold = float(cluster_threshold)
        self.clustering_interval_s = int(clustering_interval_s)
        self.use_metric_temp_nodes = use_metric_temp_nodes
        self.max_clusters = int(max_clusters)
        self.cumulative_threshold = float(cumulative_threshold)
        self.use_cumulative_threshold = use_cumulative_threshold
        self.use_direct_cause_ranking = use_direct_cause_ranking
        self.use_history_verification = use_history_verification
        self.history_days = tuple(history_days)
        self._tukey = TukeyDetector(k=tukey_k)

    # ------------------------------------------------------------------
    # Stage 1: clustering by #execution trends
    # ------------------------------------------------------------------
    def executions(self, case: AnomalyCase) -> TemplateMetricStore:
        """``#execution`` of every template at the clustering interval.

        The only metric clustering and history verification read, so
        :meth:`identify` resamples it once for both.
        """
        interval = self.clustering_interval_s
        if interval > 1:
            return case.templates.resample(interval, metrics=("#execution",))
        return case.templates

    def cluster_templates(
        self, case: AnomalyCase, executions: TemplateMetricStore | None = None
    ) -> list[Cluster]:
        """Connected components of the trend-correlation graph.

        ``executions`` is :meth:`executions` of ``case``, computed here
        when not given.
        """
        interval = self.clustering_interval_s
        store = self.executions(case) if executions is None else executions
        execs = store.matrix("#execution")
        n_templates, length = execs.shape
        if n_templates == 0:
            return []
        extra: list[np.ndarray] = []
        if self.use_metric_temp_nodes:
            for series in case.metrics.series.values():
                resampled = series.resample(interval, how="mean") if interval > 1 else series
                extra.append(resampled.values)
                length = min(length, len(resampled))
        # Template rows, then one temporary node per performance metric.
        matrix = np.empty((n_templates + len(extra), length))
        matrix[:n_templates] = execs[:, :length]
        for i, values in enumerate(extra):
            matrix[n_templates + i] = values[:length]
        corr = _safe_corrcoef(matrix)
        adj = corr > self.cluster_threshold
        graph = nx.Graph()
        graph.add_nodes_from(range(len(matrix)))
        edge_idx = np.argwhere(np.triu(adj, k=1))
        graph.add_edges_from((int(i), int(j)) for i, j in edge_idx)
        clusters: list[Cluster] = []
        for component in nx.connected_components(graph):
            members = [store.sql_ids[i] for i in component if i < n_templates]
            if members:
                clusters.append(Cluster(sql_ids=members))
        return clusters

    # ------------------------------------------------------------------
    # Stage 2: rank clusters (by H-SQL impact or Top-RT for ablation)
    # ------------------------------------------------------------------
    def rank_clusters(
        self, case: AnomalyCase, clusters: list[Cluster], hsql: HsqlRanking
    ) -> list[Cluster]:
        if self.use_direct_cause_ranking:
            impact = {s.sql_id: s.impact for s in hsql.scores}
            default = float("-inf")
        else:
            lo, hi = case.anomaly_indices()
            totals = case.templates.matrix("total_tres")[:, lo:hi].sum(axis=1)
            impact = dict(zip(case.sql_ids, totals.tolist()))
            default = 0.0
        for cluster in clusters:
            cluster.impact = max(
                (impact.get(sid, default) for sid in cluster.sql_ids),
                default=default,
            )
        clusters.sort(key=lambda c: c.impact, reverse=True)
        return clusters

    # ------------------------------------------------------------------
    # Stage 3: cumulative-threshold cluster selection
    # ------------------------------------------------------------------
    def select_clusters(
        self,
        case: AnomalyCase,
        clusters: list[Cluster],
        sessions: SessionEstimate,
    ) -> list[str]:
        """Candidate template ids from the selected top clusters."""
        if not clusters:
            return []
        if not self.use_cumulative_threshold:
            return list(clusters[0].sql_ids)
        session = case.active_session.values
        cumulative = np.zeros(len(session))
        selected: list[str] = []
        for cluster in clusters[: self.max_clusters]:
            for sql_id in cluster.sql_ids:
                cumulative = cumulative + sessions.values[sessions.index[sql_id]]
                selected.append(sql_id)
            if pearson(cumulative, session) >= self.cumulative_threshold:
                break
        return selected

    # ------------------------------------------------------------------
    # Stage 4: history-trend verification
    # ------------------------------------------------------------------
    def verify_history(
        self,
        case: AnomalyCase,
        candidates: list[str],
        executions: TemplateMetricStore | None = None,
    ) -> list[str]:
        """Keep templates whose execution surge is new (paper's two rules).

        ``executions`` is as for :meth:`cluster_templates`.
        """
        if not self.use_history_verification:
            return list(candidates)
        interval = self.clustering_interval_s
        store = self.executions(case) if executions is None else executions
        lo = (case.anomaly_start - case.ts) // interval
        window = (lo, max(lo + 1, (case.anomaly_end - case.ts) // interval))
        # Rule (i): an upward execution anomaly during the window,
        # judged against pre-anomaly fences.
        rows = [store.index[sql_id] for sql_id in candidates]
        surged = self._tukey.rows_vs_baseline(store.matrix("#execution")[rows], window)
        survivors = [sql_id for sql_id, ok in zip(candidates, surged) if ok]
        # Rule (ii): no such anomaly in the same relative window of any
        # history day.  Missing history means a brand-new SQL, which
        # passes trivially.
        recurred: set[str] = set()
        for days in self.history_days:
            pending = [
                (sql_id, past)
                for sql_id in survivors
                if sql_id not in recurred
                and (past := case.history_of(sql_id, days)) is not None
            ]
            flags = self._rows_vs_baseline([past.values for _, past in pending], window)
            recurred.update(sql_id for (sql_id, _), flag in zip(pending, flags) if flag)
        return [sql_id for sql_id in survivors if sql_id not in recurred]

    def _rows_vs_baseline(self, rows: list[np.ndarray], window: tuple[int, int]) -> np.ndarray:
        """Tukey's baseline rule per row: one call per distinct row length."""
        out = np.zeros(len(rows), dtype=bool)
        by_length: dict[int, list[int]] = {}
        for i, row in enumerate(rows):
            by_length.setdefault(len(row), []).append(i)
        for index in by_length.values():
            out[index] = self._tukey.rows_vs_baseline(np.stack([rows[i] for i in index]), window)
        return out

    # ------------------------------------------------------------------
    # Stage 5: final ranking
    # ------------------------------------------------------------------
    def rank_candidates(self, case: AnomalyCase, candidates: list[str]) -> list[tuple[str, float]]:
        """Rank by correlation of #execution with the active session."""
        session = case.active_session.values
        execs = case.templates.matrix("#execution")
        index = case.templates.index
        scored = [(sql_id, pearson(execs[index[sql_id]], session)) for sql_id in candidates]
        scored.sort(key=lambda item: item[1], reverse=True)
        return scored

    # ------------------------------------------------------------------
    # Full module
    # ------------------------------------------------------------------
    def identify(
        self,
        case: AnomalyCase,
        hsql: HsqlRanking,
        sessions: SessionEstimate,
    ) -> RsqlResult:
        with self.tracer.span("clustering_and_filtering") as s_cluster:
            executions = self.executions(case)
            clusters = self.cluster_templates(case, executions)
            clusters = self.rank_clusters(case, clusters, hsql)
            candidates = self.select_clusters(case, clusters, sessions)
        with self.tracer.span("history_verification") as s_verify:
            verified = self.verify_history(case, candidates, executions)
            widened = False
            if not verified and self.use_history_verification:
                # Verification rejected every candidate: the root cause is
                # likely in a cluster the cumulative threshold stopped short
                # of (its H-SQLs explained the session on their own, but none
                # of them shows the execution surge a root cause must have).
                # Fall back to verifying every template — at this point the
                # history filter itself is what narrows the range.
                widened = True
                wide = [sql_id for cluster in clusters for sql_id in cluster.sql_ids]
                verified = self.verify_history(case, wide, executions)
            # Last-resort fallback: never answer with nothing when candidates
            # existed — production systems page a DBA with *something* ranked.
            effective = verified if verified else candidates
            ranked = self.rank_candidates(case, effective)
        return RsqlResult(
            ranked=ranked,
            clusters=clusters,
            selected_clusters=len(clusters),
            candidates=candidates,
            verified=verified,
            widened=widened,
            clustering_seconds=s_cluster.elapsed,
            verification_seconds=s_verify.elapsed,
        )


def _safe_corrcoef(matrix: np.ndarray) -> np.ndarray:
    """Row-wise correlation with zero-variance rows mapped to 0."""
    matrix = np.asarray(matrix, dtype=np.float64)
    means = matrix.mean(axis=1, keepdims=True)
    centered = matrix - means
    norms = np.sqrt((centered**2).sum(axis=1))
    safe = norms > 1e-12
    denom = np.where(safe, norms, 1.0)
    normalised = centered / denom[:, None]
    corr = normalised @ normalised.T
    corr[~safe, :] = 0.0
    corr[:, ~safe] = 0.0
    np.clip(corr, -1.0, 1.0, out=corr)
    return corr
