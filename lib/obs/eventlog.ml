(* Bounded structured event log.

   A process-wide ring of structured events, each a kind tag plus a flat
   list of JSON fields.  The primary producer is the SQL engine's
   slow-query hook (kind "slow_query"); the log is generic so future
   subsystems (recovery, checkpointing) can reuse it.

   Events render as JSON objects, suitable for `grep`/`jq`.  The ring
   is bounded (default 1024 events); older events are dropped
   silently. *)

type event = {
  ev_seq : int;                       (* monotonic, never reused *)
  ev_ts : float;                      (* unix epoch seconds *)
  ev_kind : string;
  ev_scope : int;                     (* owning metric scope at log time *)
  ev_run : int;                       (* active RQL run id, -1 if none *)
  ev_fields : (string * Json.t) list;
}

let default_capacity = 1024

(* lint: allow — guarded by [mu] below (every read/write goes through [locked]) *)
let capacity = ref default_capacity

(* Ring storage: [buf] holds the most recent [count] events ending at
   position [head - 1] (mod capacity).
   lint: allow — ring state guarded by [mu] below, accessed via [locked] *)
let buf : event option array ref = ref (Array.make default_capacity None)
let head = ref 0
(* lint: allow — guarded by [mu] below *)
let count = ref 0
let seq = ref 0

(* The ring is shared across sessions and domains: every producer and
   reader serializes on this lock, so interleaved slow-query events from
   concurrent connections cannot tear the ring indices. *)
let mu = Mutex.create ()

let locked f = Mutex.lock mu; Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let clear () =
  locked (fun () ->
      Array.fill !buf 0 (Array.length !buf) None;
      head := 0;
      count := 0)

let set_capacity n =
  let n = max 1 n in
  locked (fun () ->
      capacity := n;
      buf := Array.make n None;
      head := 0;
      count := 0)

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
  locked (fun () ->
      incr seq;
      let e =
        { ev_seq = !seq;
          ev_ts = Unix.gettimeofday ();
          ev_kind = kind;
          ev_scope = scope_id;
          ev_run = run_id;
          ev_fields = fields }
      in
      !buf.(!head) <- Some e;
      head := (!head + 1) mod !capacity;
      if !count < !capacity then incr count)

(* Oldest-first list of retained events. *)
let events () =
  locked (fun () ->
      let cap = !capacity in
      let start = (!head - !count + cap * 2) mod cap in
      let out = ref [] in
      for k = !count - 1 downto 0 do
        match !buf.((start + k) mod cap) with
        | Some e -> out := e :: !out
        | None -> ()
      done;
      !out)

let to_json () = Json.List (List.map event_to_json (events ()))
