(** Executor-side timing attribution: the SPT-build and (automatic)
    index-creation components of the paper's per-iteration cost
    breakdown (Figs 8-13), accumulated in the {!Obs.Metrics} registry
    and charged through {!Obs.Scope} handles, so the RQL layer reads an
    iteration's components as deltas in the evaluating session's scope.
    This module holds no independent mutable totals. *)

(** Seconds spent building SPTs / automatic indexes. *)
val g_spt_build_s : Obs.Scope.gauge
val g_index_build_s : Obs.Scope.gauge

val now : unit -> float

(** Run [f], crediting elapsed seconds to the callback even when [f]
    raises (the exception is re-raised after accounting). *)
val time_into : (float -> unit) -> (unit -> 'a) -> 'a

(** Raise-safe accounting of an SPT construction (seconds, count,
    latency histogram). *)
val time_spt : (unit -> 'a) -> 'a

(** Raise-safe accounting of an automatic-index construction; also
    emits an [index_build] trace span. *)
val time_index : (unit -> 'a) -> 'a
