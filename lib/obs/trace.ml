(* Hierarchical tracing with a bounded ring of completed spans.

   Design constraints:
   - disabled tracing must be a no-op guarded by one flag check, with no
     allocation on per-page / per-row hot paths (those paths only bump
     Metrics counters; spans are taken at statement / SPT-build /
     RQL-iteration granularity);
   - spans nest: each domain keeps its own stack of open spans, which
     links children to parents (parallel RQL stripes record spans on
     worker domains), and [with_span] records the span even when the
     body raises;
   - the log is bounded: the newest [span_capacity] completed spans are
     kept in a {!Ring}, older ones are overwritten;
   - the whole log exports as Chrome trace_event JSON, so a dump opens
     directly in chrome://tracing or Perfetto.

   Spans carry a [tid] (Chrome track id).  Track 1 holds wall-clock
   spans; track 2 holds the RQL layer's modeled per-iteration cost
   attribution, where I/O time comes from the simulated-device cost
   model rather than the host clock (see DESIGN.md). *)

type attr =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type span = {
  id : int;
  parent : int; (* span id, or -1 for a root *)
  tid : int;
  name : string;
  ts_us : float; (* start, microseconds since the trace epoch *)
  mutable dur_us : float;
  mutable attrs : (string * attr) list;
  mutable seq : int; (* completion order, from 1; -1 while open *)
}

let tid_wall = 1
let tid_modeled = 2

(* One flag for every domain: EXPLAIN PROFILE in one session turns
   tracing on for all of them. *)
let enabled = Atomic.make false
let is_enabled () = Atomic.get enabled
let set_enabled on = Atomic.set enabled on

(* Trace epoch: set when the first event is recorded, so timestamps are
   small and the dump starts near t=0. *)
let epoch = Atomic.make Float.nan

let now_s = Unix.gettimeofday

let us_of_s s =
  let e = Atomic.get epoch in
  if Float.is_nan e then ignore (Atomic.compare_and_set epoch e s);
  (s -. Atomic.get epoch) *. 1e6

let now_us () = us_of_s (now_s ())

(* Chrome "C" (counter) events: a named set of values sampled over time,
   rendered by chrome://tracing as stacked counter tracks.  The RQL loop
   exports cumulative per-operator row counts here, one sample per
   iteration.  Bounded like the span log; dropped when tracing is off. *)
type counter_event = {
  c_name : string;
  c_tid : int;
  c_ts_us : float;
  c_values : (string * float) list;
}

let span_capacity = 65_536
let counter_capacity = 4_096
let span_log : span Ring.t = Ring.create span_capacity
let counter_log : counter_event Ring.t = Ring.create counter_capacity

let clear () =
  Ring.clear span_log;
  Ring.clear counter_log;
  Atomic.set epoch Float.nan

(* A position in the completion sequence; [spans_since] returns every
   still-kept span completed at or after the mark. *)
let mark () = Ring.mark span_log

let spans_since m =
  List.sort
    (fun a b ->
      let c = compare a.ts_us b.ts_us in
      if c <> 0 then c else compare a.id b.id)
    (Ring.since span_log m)

let spans () = spans_since 0

(* The spans of [spans] under span [id], that one included. *)
let subtree id spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun sp -> Hashtbl.replace by_id sp.id sp) spans;
  let rec under sp =
    sp.id = id || Option.fold ~none:false ~some:under (Hashtbl.find_opt by_id sp.parent)
  in
  List.filter under spans

let push_completed sp = ignore (Ring.push span_log (fun n -> sp.seq <- n; sp))

(* --- span recording ---------------------------------------------------- *)

let next_id = Atomic.make 0
let fresh_id () = Atomic.fetch_and_add next_id 1 + 1

(* This domain's open spans, innermost first. *)
let stack : span list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let current_parent () = match Domain.DLS.get stack with sp :: _ -> sp.id | [] -> -1

let start_span ?(tid = tid_wall) ?(attrs = []) name =
  let sp =
    { id = fresh_id ();
      parent = current_parent ();
      tid;
      name;
      ts_us = now_us ();
      dur_us = 0.;
      attrs;
      seq = -1 }
  in
  Domain.DLS.set stack (sp :: Domain.DLS.get stack);
  sp

let finish_span sp =
  sp.dur_us <- now_us () -. sp.ts_us;
  (match Domain.DLS.get stack with
  | top :: rest when top == sp -> Domain.DLS.set stack rest
  | l -> Domain.DLS.set stack (List.filter (fun s -> not (s == sp)) l));
  push_completed sp

(* Attach attributes to the innermost open span (no-op when disabled or
   outside any span). *)
let set_attrs attrs =
  if is_enabled () then
    match Domain.DLS.get stack with
    | sp :: _ -> sp.attrs <- sp.attrs @ attrs
    | [] -> ()

let with_span ?attrs ~name f =
  if not (is_enabled ()) then f ()
  else begin
    let sp = start_span ?attrs name in
    match f () with
    | r ->
      finish_span sp;
      r
    | exception e ->
      sp.attrs <- sp.attrs @ [ ("error", Str (Printexc.to_string e)) ];
      finish_span sp;
      raise e
  end

(* Record an already-measured (or modeled) interval as a completed span.
   Returns the span id so callers can parent further synthetic spans
   under it; returns -1 when tracing is disabled. *)
let emit ?(tid = tid_wall) ?parent ?(attrs = []) ~name ~ts_us ~dur_us () =
  if not (is_enabled ()) then -1
  else begin
    let parent = match parent with Some p -> p | None -> current_parent () in
    let sp = { id = fresh_id (); parent; tid; name; ts_us; dur_us; attrs; seq = -1 } in
    push_completed sp;
    sp.id
  end

(* --- counter tracks ----------------------------------------------------- *)

let emit_counter ?(tid = tid_modeled) ~name values =
  if is_enabled () then begin
    let ev = { c_name = name; c_tid = tid; c_ts_us = now_us (); c_values = values } in
    ignore (Ring.push counter_log (fun _ -> ev))
  end

(* Kept counter events, oldest first. *)
let counter_events () = Ring.to_list counter_log
(* --- Chrome trace_event export ----------------------------------------- *)

let attr_to_json = function
  | Str s -> Json.Str s
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Bool b -> Json.Bool b

let span_event sp =
  Json.Obj
    [ ("name", Json.Str sp.name);
      ("cat", Json.Str "rql");
      ("ph", Json.Str "X");
      ("ts", Json.Float sp.ts_us);
      ("dur", Json.Float sp.dur_us);
      ("pid", Json.Int 1);
      ("tid", Json.Int sp.tid);
      ("args", Json.Obj (List.map (fun (k, v) -> (k, attr_to_json v)) sp.attrs)) ]

let thread_name_event tid name =
  Json.Obj
    [ ("name", Json.Str "thread_name");
      ("ph", Json.Str "M");
      ("pid", Json.Int 1);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.Str name) ]) ]

let counter_event_json ev =
  Json.Obj
    [ ("name", Json.Str ev.c_name);
      ("cat", Json.Str "rql");
      ("ph", Json.Str "C");
      ("ts", Json.Float ev.c_ts_us);
      ("pid", Json.Int 1);
      ("tid", Json.Int ev.c_tid);
      ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) ev.c_values)) ]

let to_chrome_json () =
  let events =
    thread_name_event tid_wall "wall clock"
    :: thread_name_event tid_modeled "rql modeled attribution"
    :: (List.map span_event (spans ()) @ List.map counter_event_json (counter_events ()))
  in
  Json.Obj [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.Str "ms") ]

let dump ~path = Json.write_file path (to_chrome_json ())

(* --- tree rendering (EXPLAIN PROFILE, shell) ---------------------------- *)

let attr_to_string = function
  | Str s -> s
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Bool b -> string_of_bool b

let render_span sp =
  let attrs =
    match sp.attrs with
    | [] -> ""
    | l ->
      "  ["
      ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ attr_to_string v) l)
      ^ "]"
  in
  Printf.sprintf "%s  %.3f ms%s" sp.name (sp.dur_us /. 1e3) attrs

(* Indented textual tree of [spans] (children grouped under parents,
   siblings in start order).  Spans whose parent is not in the list are
   roots. *)
let render_tree spans =
  let ids = Hashtbl.create 64 in
  List.iter (fun sp -> Hashtbl.replace ids sp.id ()) spans;
  let children = Hashtbl.create 64 in
  let roots = ref [] in
  List.iter
    (fun sp ->
      if sp.parent >= 0 && Hashtbl.mem ids sp.parent then begin
        let l = try Hashtbl.find children sp.parent with Not_found -> [] in
        Hashtbl.replace children sp.parent (l @ [ sp ])
      end
      else roots := sp :: !roots)
    spans;
  let out = ref [] in
  let rec go depth sp =
    out := (String.make (2 * depth) ' ' ^ render_span sp) :: !out;
    List.iter (go (depth + 1)) (try Hashtbl.find children sp.id with Not_found -> [])
  in
  List.iter (go 0) (List.rev !roots);
  List.rev !out
