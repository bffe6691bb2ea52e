(** Cost accounting for the storage manager and the Retro layer: the
    raw material for the per-iteration cost attribution (I/O / SPT
    build / query evaluation / UDF) used by the benchmarks.

    Counter state lives in the {!Obs.Metrics} registry — the root
    metric scope — reached through {!Obs.Scope} handles, so increments
    also charge whatever scope is active.  This module holds no
    independent mutable totals: instrumentation points increment the
    [c_*] counters directly, and readers diff [Obs.Scope.get] (process
    totals) or [Obs.Scope.get_in] (one scope's totals). *)

(** Scope-charged counters. *)
val c_db_page_reads : Obs.Scope.counter
val c_db_page_writes : Obs.Scope.counter
val c_pagelog_reads : Obs.Scope.counter
val c_pagelog_writes : Obs.Scope.counter
val c_maplog_appends : Obs.Scope.counter
val c_maplog_scanned : Obs.Scope.counter
val c_snap_cache_hits : Obs.Scope.counter
val c_snap_cache_misses : Obs.Scope.counter
val c_pages_allocated : Obs.Scope.counter
val c_txn_commits : Obs.Scope.counter
val c_txn_aborts : Obs.Scope.counter
val c_cow_archived : Obs.Scope.counter
val c_wal_appends : Obs.Scope.counter
val c_wal_bytes : Obs.Scope.counter
val c_wal_fsyncs : Obs.Scope.counter

(** Durability events outside the steady-state cost model. *)
val c_recoveries : Obs.Scope.counter
val c_torn_tail_discards : Obs.Scope.counter
val c_checksum_failures : Obs.Scope.counter

(** Archive-lifecycle events (VACUUM SNAPSHOTS / CHECKPOINT) and the
    transient-read-retry path. *)
val c_checkpoints : Obs.Scope.counter
val c_wal_truncated_bytes : Obs.Scope.counter
val c_snapshots_vacuumed : Obs.Scope.counter
val c_blocks_reclaimed : Obs.Scope.counter
val c_read_retries : Obs.Scope.counter

(** Record one current-state (resp. archive) page read: charges the
    per-device counter, the combined [storage.page_reads] total, and
    the (table, snapshot) heat cell of every active scope in one code
    path, so the heat matrix partitions the total exactly. *)
val record_db_page_read : unit -> unit
val record_pagelog_read : unit -> unit

(** Latency model for the simulated archive device, calibrated to the
    paper's measured per-page I/O (see DESIGN.md). *)
module Cost_model : sig
  val ssd_read_s : float ref
  val ssd_write_s : float ref

  (** Modeled fsync barrier on the WAL device (amortized by group
      commit). *)
  val fsync_s : float ref

  (** When true, each archive read also sleeps [!ssd_read_s] of real
      wall-clock time (outside any lock), so concurrent readers overlap
      their simulated device waits like they would on a real SSD.  Off
      by default; only the AS OF scaling gate in bench/gates.ml turns
      it on, and perfbench asserts it off. *)
  val real_read_latency : bool ref
end
