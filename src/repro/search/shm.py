"""Zero-copy shared-memory export of the encoded columnar store (PR 8).

Process-executor chains used to pickle the whole join graph (samples, code
arrays, caches) into every pool on every build, and the service tore the pool
down whenever the catalog changed.  This module replaces both halves:

``SharedColumnStore``
    Exports a set of :class:`~repro.relational.table.Table` objects into
    ``multiprocessing.shared_memory`` segments: one int64 buffer per cached
    dictionary-encoding (codes and histogram counts) plus one pickled payload
    blob per table (schema, decode values) and one store-level meta blob
    (pricing model, the join graph's JI weights, FDs).  Every segment is blake2b-fingerprinted
    and listed in a :class:`StoreManifest` — a small picklable registry.
    The codes travel once as ``array('q')`` bytes, and each worker copies
    them out into plain lists and unmaps the segment at once.

``SharedChainState``
    The parent-side version manager: publishes one *base* manifest plus an
    ordered log of *delta* manifests (changed tables only, with the JI edge
    weights the incremental ``JoinGraph`` rebuild already computed).  Workers
    hold a versioned session and apply deltas keyed by ``graph_version``,
    hard-resyncing only on version gaps or a rebase — so a warm pool survives
    ``register_source_tables`` without teardown, and its evaluation memos
    keep every entry a delta cannot have changed
    (:func:`~repro.graph.target.prune_memos`).  A worker's JI weights are
    its graph's, the only JI store its walks read.  The manifests reach workers
    as a :class:`PinnedSpec`: the :class:`WorkerSpec` pickled once per
    published version, which a worker already at that version never unpickles.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import threading
from array import array
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Mapping, Sequence

from repro.exceptions import ReproError
from repro.graph.join_graph import JoinGraph
from repro.graph.target import prune_memos
from repro.quality.fd import FunctionalDependency
from repro.relational.table import ColumnEncoding, Table

#: Every segment name starts with this prefix (plus the creating pid), so a
#: leak check can scan ``/dev/shm`` for stragglers after shutdown.
SEGMENT_PREFIX = "rshm"

#: After this many pending deltas the parent rebases (fresh base manifest)
#: instead of letting worker specs grow without bound.
MAX_DELTA_LOG = 16

_SEQUENCE = itertools.count()


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _segment_name(token: str) -> str:
    stem = hashlib.blake2b(token.encode(), digest_size=3).hexdigest()
    return f"{SEGMENT_PREFIX}{os.getpid()}x{stem}x{next(_SEQUENCE)}"


class _RawSegment:
    """Read-only attachment to a POSIX segment, outside the resource tracker.

    Python < 3.13 registers *attached* ``SharedMemory`` objects with the
    resource tracker as if this process created them (bpo-39959): a spawned
    worker's private tracker then unlinks segments the parent still owns on
    worker exit, while unregistering corrupts a fork-shared tracker instead.
    Mapping ``/dev/shm/<name>`` directly sidesteps the tracker on every
    interpreter, and ``PROT_READ`` enforces the read-only contract at the OS
    level."""

    __slots__ = ("name", "_mmap", "buf")

    def __init__(self, name: str, path: str) -> None:
        import mmap

        fd = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            self._mmap = mmap.mmap(fd, size, prot=mmap.PROT_READ)
        finally:
            os.close(fd)
        self.name = name
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        self.buf.release()
        self._mmap.close()


def _attach_segment(name: str):
    """Attach an existing segment without taking resource-tracker ownership."""
    path = f"/dev/shm/{name}"
    if os.path.exists(path):
        return _RawSegment(name, path)
    try:  # non-/dev/shm platforms: 3.13+ can attach untracked directly
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    segment = shared_memory.SharedMemory(name=name)
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")  # type: ignore
    except Exception:  # dancelint: disable=ERR301 -- tracker internals vary by version
        pass
    return segment


# --------------------------------------------------------------------------
# Manifests: the picklable segment registry that rides in chain payloads.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SegmentRef:
    """One shared-memory segment: its name, payload size, and content digest."""

    name: str
    size: int
    digest: str


@dataclass(frozen=True)
class TableExport:
    """One table's segments: a pickled payload blob plus its encoding buffers.

    ``arrays`` maps ``(encoding key, kind)`` — kind is ``"codes"`` or
    ``"counts"`` — to the segment holding it as int64 values.  Single-column
    ``#key`` encodings share their codes segment with the base column
    encoding, exactly like the in-process cache does.
    """

    name: str
    payload: SegmentRef
    arrays: tuple[tuple[tuple, SegmentRef], ...]


@dataclass(frozen=True)
class StoreManifest:
    """The registry for one published version: base snapshot or delta."""

    token: str
    version: int
    kind: str  # "base" | "delta"
    fingerprint: str
    tables: tuple[TableExport, ...]
    meta: SegmentRef


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to (re)construct state at a target version."""

    token: str
    base: StoreManifest
    deltas: tuple[StoreManifest, ...] = ()

    @property
    def version(self) -> int:
        return self.deltas[-1].version if self.deltas else self.base.version


@dataclass(frozen=True)
class PinnedSpec:
    """A :class:`WorkerSpec` pickled once per published version.

    Chain payloads carry this instead of the spec: ``blob`` is the pickled
    spec, and ``(token, version, base_fingerprint)`` is all a worker reads to
    see that its session is already there, which skips the unpickle."""

    token: str
    version: int
    base_fingerprint: str
    blob: bytes


# --------------------------------------------------------------------------
# Parent side: exporting tables into segments.
# --------------------------------------------------------------------------


class SharedColumnStore:
    """One-shot exporter of a table set into shared-memory segments.

    Create one store per published manifest; :meth:`close` unlinks every
    segment the store created.  The parent keeps stores alive for as long as
    a worker might still attach their manifests (the :class:`SharedChainState`
    owns that lifecycle)."""

    def __init__(self, token: str) -> None:
        self.token = token
        self._segments: list[shared_memory.SharedMemory] = []
        self._closed = False

    # -- low-level segment writers ---------------------------------------

    def _write_segment(self, data: bytes) -> SegmentRef:
        if self._closed:
            raise ReproError("SharedColumnStore is closed")
        size = max(1, len(data))
        segment = shared_memory.SharedMemory(
            name=_segment_name(self.token), create=True, size=size
        )
        segment.buf[: len(data)] = data
        self._segments.append(segment)
        return SegmentRef(name=segment.name, size=len(data), digest=_digest(data))

    def _write_array(self, values: list[int]) -> SegmentRef:
        return self._write_segment(array("q", values).tobytes())

    def _export_table(self, table: Table) -> TableExport:
        # Force a base encoding for every column so workers can rebuild the
        # raw column lists from (codes, values) without shipping them twice.
        for column in table.schema.names:
            table.encoded(column)
        arrays: list[tuple[tuple, SegmentRef]] = []
        values: dict[tuple, list] = {}
        shared_refs: dict[int, SegmentRef] = {}
        for key, encoding in sorted(table._encodings.items()):
            ref = shared_refs.get(id(encoding.codes))
            if ref is None:
                ref = self._write_array(encoding.codes)
                shared_refs[id(encoding.codes)] = ref
            arrays.append(((key, "codes"), ref))
            values[key] = encoding.values
            cached_counts = encoding._counts
            if cached_counts is not None:
                arrays.append(((key, "counts"), self._write_array(cached_counts)))
        payload = pickle.dumps(
            {
                "schema": table.schema,
                "num_rows": table.num_rows,
                "values": values,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        return TableExport(
            name=table.name,
            payload=self._write_segment(payload),
            arrays=tuple(arrays),
        )

    def export_tables(
        self,
        tables: Mapping[str, Table],
        *,
        version: int,
        kind: str,
        meta: Mapping[str, object],
    ) -> StoreManifest:
        """Publish ``tables`` plus a pickled ``meta`` blob as one manifest."""
        exports = tuple(self._export_table(tables[name]) for name in sorted(tables))
        meta_ref = self._write_segment(
            pickle.dumps(dict(meta), protocol=pickle.HIGHEST_PROTOCOL)
        )
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(f"{self.token}:{version}:{kind}".encode())
        for export in exports:
            hasher.update(export.payload.digest.encode())
            for _, ref in export.arrays:
                hasher.update(ref.digest.encode())
        hasher.update(meta_ref.digest.encode())
        return StoreManifest(
            token=self.token,
            version=version,
            kind=kind,
            fingerprint=hasher.hexdigest(),
            tables=exports,
            meta=meta_ref,
        )

    def segment_names(self) -> list[str]:
        return [segment.name for segment in self._segments]

    def close(self) -> None:
        """Close and unlink every segment this store created (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:
                pass
        self._segments.clear()


# --------------------------------------------------------------------------
# Worker side: materializing tables and graphs from manifests.
# --------------------------------------------------------------------------


def _read_segment(ref: SegmentRef) -> bytes:
    """A segment's payload, fingerprint-checked; the mapping closes at once.

    Workers copy everything they need out of the bytes, so no segment stays
    mapped after its manifest is read."""
    segment = _attach_segment(ref.name)
    try:
        data = bytes(segment.buf[: ref.size])
    finally:
        segment.close()
    if _digest(data) != ref.digest:
        raise ReproError(
            f"shared-memory segment {ref.name} failed its fingerprint check "
            "(stale or foreign segment)"
        )
    return data


def _read_array(ref: SegmentRef) -> list[int]:
    """A segment's int64 values as a list of python ints."""
    values = array("q")
    values.frombytes(_read_segment(ref))
    return values.tolist()


def attach_tables(manifest: StoreManifest) -> tuple[dict[str, Table], dict]:
    """Rebuild the manifest's tables (and its meta blob) from shared memory.

    Returns ``(tables, meta)``; every segment is closed again before this
    returns."""
    tables: dict[str, Table] = {}
    for export in manifest.tables:
        payload = pickle.loads(_read_segment(export.payload))
        schema = payload["schema"]
        values: dict[tuple, list] = payload["values"]
        mapped: dict[tuple, object] = {}
        by_segment: dict[str, object] = {}
        counts: dict[tuple, object] = {}
        for (key, kind), ref in export.arrays:
            buffer = by_segment.get(ref.name)
            if buffer is None:
                buffer = _read_array(ref)
                by_segment[ref.name] = buffer
            if kind == "codes":
                mapped[key] = buffer
            else:
                counts[key] = buffer
        columns = {
            name: [values[(name,)][code] for code in mapped[(name,)]]
            for name in schema.names
        }
        table = Table._from_columns(export.name, schema, columns, payload["num_rows"])
        for key, codes in mapped.items():
            encoding = ColumnEncoding(codes, values[key])
            if key in counts:
                encoding._counts = counts[key]
            table._encodings[key] = encoding
        tables[export.name] = table
    meta = pickle.loads(_read_segment(manifest.meta))
    return tables, meta


class _WorkerSession:
    """Per-process materialized state for one pool token."""

    __slots__ = (
        "token",
        "version",
        "base_fingerprint",
        "graph",
        "fds",
        "eval_caches",
    )

    def __init__(self, token: str) -> None:
        self.token = token
        self.version = -1
        self.base_fingerprint = ""
        self.graph: JoinGraph | None = None
        self.fds: tuple[FunctionalDependency, ...] = ()
        self.eval_caches: dict[object, dict] = {}

    def evaluation_cache(self, memo_key) -> dict:
        """Worker-persistent evaluation memo for one request namespace.

        A plain dict: workers are single-threaded, so unlike the service's
        :class:`~repro.memo.Memo` there is no lock traffic on the hot path.
        JI weights are the worker graph's own, preloaded from the published
        ones."""
        return self.eval_caches.setdefault(memo_key, {})

    def close(self) -> None:
        self.graph = None
        self.eval_caches.clear()


_SESSIONS: dict[str, _WorkerSession] = {}


def _load_base(spec: WorkerSpec) -> _WorkerSession:
    session = _WorkerSession(spec.token)
    tables, meta = attach_tables(spec.base)
    session.graph = JoinGraph(
        tables,
        pricing=meta["pricing"],
        max_join_attribute_size=meta["max_join_attribute_size"],
        source_instances=meta["source_instances"],
        preload_ji=meta["ji"],
    )
    session.fds = tuple(meta["fds"])
    session.version = spec.base.version
    session.base_fingerprint = spec.base.fingerprint
    return session


def _apply_delta(session: _WorkerSession, manifest: StoreManifest) -> None:
    tables, meta = attach_tables(manifest)
    is_source: Mapping[str, bool] = meta["is_source"]
    for name in sorted(tables):
        session.graph.add_instance(
            tables[name], is_source=is_source.get(name, False), preload_ji=meta["ji"]
        )
    fds_before, session.fds = session.fds, tuple(meta["fds"])
    # A delta is one step, so the memos keep every entry it cannot have
    # changed, by the same rule as the service's own memos; add_instance
    # dropped the changed instances' JI weights and preloaded the new ones.
    prune_memos(session.eval_caches.values(), tables, fds_before, session.fds)
    session.version = manifest.version


def ensure_session(spec: WorkerSpec) -> tuple[_WorkerSession, dict[str, int]]:
    """Bring this process's session for ``spec.token`` to the target version.

    Returns the session plus per-call stats: ``cold_load`` (first attach in
    this worker), ``resyncs`` (a rebase or version gap forced a full reload),
    ``deltas_applied`` (incremental updates applied this call)."""
    stats = {"cold_load": 0, "resyncs": 0, "deltas_applied": 0}
    session = _SESSIONS.get(spec.token)
    if session is None or session.base_fingerprint != spec.base.fingerprint:
        stats["cold_load" if session is None else "resyncs"] = 1
        if session is not None:
            session.close()
        session = _load_base(spec)
        for delta in spec.deltas:
            _apply_delta(session, delta)
            stats["deltas_applied"] += 1
        _SESSIONS[spec.token] = session
        return session, stats
    pending = sorted(
        (delta for delta in spec.deltas if delta.version > session.version),
        key=lambda manifest: manifest.version,
    )
    expected = session.version
    for delta in pending:
        if delta.version != expected + 1:
            # Version gap: the parent pruned deltas we never saw. Resync.
            session.close()
            session = _load_base(spec)
            for replay in spec.deltas:
                _apply_delta(session, replay)
            stats["resyncs"] += 1
            stats["deltas_applied"] = len(spec.deltas)
            _SESSIONS[spec.token] = session
            return session, stats
        _apply_delta(session, delta)
        stats["deltas_applied"] += 1
        expected += 1
    return session, stats


def ensure_pinned_session(pinned: PinnedSpec) -> tuple[_WorkerSession, dict[str, int]]:
    """:func:`ensure_session` for a pinned spec, unpickling it only when needed.

    A session already at the pinned version over the same base is returned
    as is; any other unpickles the spec and runs :func:`ensure_session`.  The
    stats gain ``spec_loads``: 1 when the call unpickled the spec."""
    session = _SESSIONS.get(pinned.token)
    if (
        session is not None
        and session.version == pinned.version
        and session.base_fingerprint == pinned.base_fingerprint
    ):
        return session, {"cold_load": 0, "resyncs": 0, "deltas_applied": 0, "spec_loads": 0}
    session, stats = ensure_session(pickle.loads(pinned.blob))
    stats["spec_loads"] = 1
    return session, stats


def drop_session(token: str) -> None:
    """Release this process's session for ``token`` (tests / explicit resets)."""
    session = _SESSIONS.pop(token, None)
    if session is not None:
        session.close()


# --------------------------------------------------------------------------
# Parent side: the versioned state manager behind a persistent pool.
# --------------------------------------------------------------------------


class SharedChainState:
    """Versioned shared-memory state behind one persistent process pool.

    Publishes the base snapshot at construction; :meth:`publish_delta` ships
    changed instances without touching the pool, :meth:`rebase` replaces the
    snapshot wholesale (workers hard-resync), and :meth:`close` unlinks every
    segment.  ``ChainScheduler`` sends name-based payloads only while
    :meth:`covers` holds for a call."""

    def __init__(
        self,
        join_graph: JoinGraph,
        fds: Sequence[FunctionalDependency],
        *,
        token: str,
        version: int = 0,
    ) -> None:
        self.token = token
        self._lock = threading.Lock()
        self._stores: list[SharedColumnStore] = []  # guarded-by: self._lock
        self._deltas: list[StoreManifest] = []  # guarded-by: self._lock
        self._stats = {  # guarded-by: self._lock
            "deltas_published": 0,
            "rebases": 0,
            "worker_cold_loads": 0,
            "worker_resyncs": 0,
            "worker_deltas_applied": 0,
            "worker_spec_loads": 0,
        }
        self._closed = False  # guarded-by: self._lock
        self._pinned: PinnedSpec | None = None  # guarded-by: self._lock
        with self._lock:
            self._base = self._publish_base_locked(join_graph, fds, version)

    # -- publishing -------------------------------------------------------

    def _publish_base_locked(self, join_graph, fds, version) -> StoreManifest:
        store = SharedColumnStore(self.token)
        manifest = store.export_tables(
            join_graph.instance_tables(),
            version=version,
            kind="base",
            meta={
                "pricing": join_graph.pricing,
                "max_join_attribute_size": join_graph.max_join_attribute_size,
                "source_instances": tuple(sorted(join_graph.source_instances)),
                "fds": tuple(fds),
                "ji": join_graph.ji_weights(),
            },
        )
        self._stores.append(store)
        self._graph = join_graph  # guarded-by: self._lock
        self._revision = join_graph.revision  # guarded-by: self._lock
        self._fds = tuple(fds)  # guarded-by: self._lock
        self._version = version  # guarded-by: self._lock
        self._pinned = None
        return manifest

    def publish_delta(
        self,
        join_graph: JoinGraph,
        fds: Sequence[FunctionalDependency],
        *,
        version: int,
        changed: Sequence[str],
    ) -> None:
        """Ship only the changed instances (plus their JI edges) to workers.

        Falls back to :meth:`rebase` when the version jumps by more than one,
        when a changed name is missing from the new graph, or when the delta
        log has grown past :data:`MAX_DELTA_LOG`."""
        with self._lock:
            if self._closed:
                raise ReproError("SharedChainState is closed")
            names = sorted(set(changed))
            samples = join_graph.instance_tables()
            if (
                version != self._version + 1
                or not names
                or any(name not in samples for name in names)
                or len(self._deltas) >= MAX_DELTA_LOG
            ):
                self._rebase_locked(join_graph, fds, version)
                return
            touched = set(names)
            ji_delta = {
                key: weight
                for key, weight in join_graph.ji_weights().items()
                if key[0] in touched or key[1] in touched
            }
            store = SharedColumnStore(self.token)
            manifest = store.export_tables(
                {name: samples[name] for name in names},
                version=version,
                kind="delta",
                meta={
                    "ji": ji_delta,
                    "fds": tuple(fds),
                    "is_source": {
                        name: name in join_graph.source_instances for name in names
                    },
                },
            )
            self._stores.append(store)
            self._deltas.append(manifest)
            self._graph = join_graph
            self._revision = join_graph.revision
            self._fds = tuple(fds)
            self._version = version
            self._pinned = None
            self._stats["deltas_published"] += 1

    def rebase(
        self, join_graph: JoinGraph, fds: Sequence[FunctionalDependency], *, version: int
    ) -> None:
        """Replace the published snapshot wholesale (workers fully resync)."""
        with self._lock:
            if self._closed:
                raise ReproError("SharedChainState is closed")
            self._rebase_locked(join_graph, fds, version)

    def _rebase_locked(self, join_graph, fds, version) -> None:
        stale = self._stores
        self._stores = []
        self._deltas = []
        self._base = self._publish_base_locked(join_graph, fds, version)
        self._stats["rebases"] += 1
        # Unlinking is safe while workers still hold the old mappings: POSIX
        # keeps the memory alive until the last attachment closes, and any
        # worker that comes back sees the fingerprint change and resyncs.
        for store in stale:
            store.close()

    # -- scheduler surface ------------------------------------------------

    def spec(self) -> WorkerSpec:
        with self._lock:
            return self._spec_locked()

    def _spec_locked(self) -> WorkerSpec:
        return WorkerSpec(
            token=self.token,
            base=self._base,
            deltas=tuple(self._deltas),
        )

    def pinned(self) -> PinnedSpec:
        """The current spec, pickled once per published version."""
        with self._lock:
            if self._pinned is None:
                spec = self._spec_locked()
                self._pinned = PinnedSpec(
                    token=self.token,
                    version=spec.version,
                    base_fingerprint=spec.base.fingerprint,
                    blob=pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL),
                )
            return self._pinned

    def covers(
        self,
        join_graph: JoinGraph,
        tables: Mapping[str, Table],
        fds: Sequence[FunctionalDependency],
    ) -> bool:
        """Whether name-based payloads are valid for a call: the published
        state must be exactly the caller's world.

        The call's graph must be the published graph object at its published
        ``revision`` (identity alone cannot see an in-place
        ``JoinGraph.add_instance``), its FDs the published FDs, and every
        evaluation table the graph's own sample.  Any drift sends full
        payloads instead, so stale worker state can never change a result."""
        with self._lock:
            if self._closed or join_graph is not self._graph:
                return False
            if join_graph.revision != self._revision:
                return False
            if tuple(fds) != self._fds:
                return False
        for name, table in tables.items():
            if name not in join_graph or join_graph.sample(name) is not table:
                return False
        return True

    # -- accounting / lifecycle -------------------------------------------

    @property
    def version(self) -> int:
        with self._lock:
            return self._version

    def note_worker_stats(self, stats: Mapping[str, int]) -> None:
        with self._lock:
            self._stats["worker_cold_loads"] += stats.get("cold_load", 0)
            self._stats["worker_resyncs"] += stats.get("resyncs", 0)
            self._stats["worker_deltas_applied"] += stats.get("deltas_applied", 0)
            self._stats["worker_spec_loads"] += stats.get("spec_loads", 0)

    def stats(self) -> dict[str, int]:
        with self._lock:
            snapshot = dict(self._stats)
            snapshot["published_version"] = self._version
            snapshot["pending_deltas"] = len(self._deltas)
            return snapshot

    def segment_names(self) -> list[str]:
        with self._lock:
            names: list[str] = []
            for store in self._stores:
                names.extend(store.segment_names())
            return names

    def close(self) -> None:
        """Unlink every published segment (idempotent)."""
        with self._lock:
            self._closed = True
            for store in self._stores:
                store.close()
            self._stores.clear()
            self._deltas.clear()


def live_segments() -> list[str]:
    """Names of this machine's live repro shared-memory segments (leak check)."""
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):
        return []
    return sorted(
        name for name in os.listdir(shm_dir) if name.startswith(SEGMENT_PREFIX)
    )
