(* Bounded structured event log.

   A process-wide ring of structured events, each a kind tag plus a flat
   list of JSON fields.  The primary producer is the SQL engine's
   slow-query hook (kind "slow_query"); the log is generic so future
   subsystems (recovery, checkpointing) can reuse it.

   Events render as JSON objects, suitable for `grep`/`jq`.  The newest
   [capacity] events are kept in a {!Ring} (shared by every session and
   domain); older events are dropped silently. *)

type event = {
  ev_seq : int;                       (* from 1, never reused *)
  ev_ts : float;                      (* unix epoch seconds *)
  ev_kind : string;
  ev_scope : int;                     (* owning metric scope at log time *)
  ev_run : int;                       (* active RQL run id, -1 if none *)
  ev_fields : (string * Json.t) list;
}

let capacity = 1_024
let ring : event Ring.t = Ring.create capacity

let clear () = Ring.clear ring

let event_to_json (e : event) =
  Json.Obj
    (("seq", Json.Int e.ev_seq)
     :: ("ts", Json.Float e.ev_ts)
     :: ("kind", Json.Str e.ev_kind)
     :: ("scope", Json.Int e.ev_scope)
     :: (if e.ev_run >= 0 then [ ("rql_run", Json.Int e.ev_run) ] else [])
    @ e.ev_fields)

(* Every event carries the ambient scope id and (when one is active)
   the RQL run id, so slowlog lines stay attributable when several
   sessions / long retrospective runs interleave. *)
let log ~kind fields =
  (* Ambient ids are domain-local: resolve them outside the lock. *)
  let scope_id = Scope.current_id () and run_id = Progress.current_run_id () in
  ignore
    (Ring.push ring (fun seq ->
         { ev_seq = seq;
           ev_ts = Unix.gettimeofday ();
           ev_kind = kind;
           ev_scope = scope_id;
           ev_run = run_id;
           ev_fields = fields }))

(* Oldest-first list of kept events. *)
let events () = Ring.to_list ring

let to_json () = Json.List (List.map event_to_json (events ()))
