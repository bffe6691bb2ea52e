(* Delta-driven evaluation of one aggregate query over a sequence of
   snapshots: the RQL snapshot loop's Qq, when the optimizer found it
   delta-safe (Opt.delta_verdict — one heap scan, filters, aggregates).

   The query's result over a snapshot is a fold over the table's heap
   pages in chain order.  This evaluator keeps, per heap page, the rows
   of that page that pass the filters (decoded, with their group keys).
   The first snapshot evaluates every page.  For each later snapshot,
   the archive names the pages modified between the two declarations
   (Retro.changed_pages); only those, and pages the previous snapshot
   did not have, are read and re-evaluated, and the rest keep their
   rows.  The kept rows are then aggregated in chain order by the
   ordinary executor's grouping code, so the result — same groups, same
   order, same representative rows, same float sums — is what the
   ordinary executor computes on the whole snapshot (Dignös et al.'s
   snapshot reducibility; the test suite checks it against the ordinary
   executor).

   The kept rows are bounded: an evaluation that would keep more than
   the evaluator's [max_rows] runs the ordinary executor instead, and so
   does every later evaluation of the run.

   A run starts over ("full") when there is no previous snapshot, when
   the plan was re-planned, or when the previous snapshot has since
   been vacuumed; otherwise an iteration is a "delta". *)

module R = Storage.Record

(* A heap page's rows passing the filters, in slot order, with their
   group keys. *)
type page = { pg_next : int; pg_keys : string array; pg_rows : R.row array }

type mode = Full | Delta

let mode_to_string = function Full -> "full" | Delta -> "delta"

(* What the last evaluation did. *)
type report = {
  mode : mode;
  evaluated : int; (* heap pages read and re-evaluated *)
  reused : int; (* heap pages whose rows carried over *)
}

type t = {
  max_rows : int; (* most rows kept across the heap's pages *)
  mutable over_budget : bool; (* a snapshot needed more: run plain *)
  mutable plan : Plan.t option; (* the cached plan the pages belong to *)
  mutable sid : int; (* the snapshot they describe *)
  mutable pages : (int, page) Hashtbl.t; (* heap page id -> its rows *)
  mutable last : report option;
}

(* A kept row costs its full width plus its read values: 170 bytes for
   one column of lineitem, 260 for five (64-bit OCaml), so the default
   bounds the kept rows at 40-65 MB.  TPC-H SF 0.01's largest table
   holds 60 000 rows. *)
let default_max_rows = 250_000

(* One evaluator per run: its state belongs to the run's loop. *)
let create ?(max_rows = default_max_rows) () =
  { max_rows; over_budget = false; plan = None; sid = 0; pages = Hashtbl.create 1; last = None }

let last t = t.last

let c_evaluated = Obs.Scope.counter "sql.delta_pages_evaluated"
let c_reused = Obs.Scope.counter "sql.delta_pages_reused"

(* Can [eval] run this plan?  The optimizer's verdict decides; an
   always-false WHERE reads nothing either way. *)
let eligible t (p : Plan.t) =
  (not t.over_budget)
  &&
  match p.Plan.p_opt with
  | Some oi -> oi.Plan.oi_delta_safe && not p.Plan.p_core.Plan.c_empty
  | None -> false

(* The last evaluation ran the ordinary executor: the pages no longer
   describe the snapshot before the next one. *)
let note_plain t =
  t.plan <- None;
  t.pages <- Hashtbl.create 1;
  t.last <- None

exception Over_budget

(* Evaluate [bound] — [cached] with its parameters bound — against the
   snapshot environment [env].  Returns the header and runner, like
   {!Exec.stream_plan}; the page work is done before returning. *)
let eval t (env : Exec.env) ~(cached : Plan.t) (bound : Plan.t) =
  let sid =
    match env.Exec.as_of with
    | Some sid -> sid
    | None -> invalid_arg "Incr.eval: not a snapshot environment"
  in
  let c = bound.Plan.p_core in
  let first =
    match c.Plan.c_from with
    | Plan.From_scan { first; joins = []; residual = [] } -> first
    | _ -> invalid_arg "Incr.eval: plan is not delta-safe"
  in
  let tbl = first.Plan.sc_src.Plan.s_tbl in
  let retro = Db.retro_exn env.Exec.db in
  let changed =
    match t.plan with
    | Some p when p == cached && not (Retro.is_vacuumed retro t.sid) ->
      Some (Retro.changed_pages retro t.sid sid)
    | _ -> None
  in
  let fnctx = Db.fn_ctx env.Exec.db in
  let decode =
    match Plan.projections c with d :: _ -> R.decode_cols d | [] -> R.decode_bytes
  in
  let filters = first.Plan.sc_filters in
  let key_of = match c.Plan.c_group with [] -> fun _ -> "" | es -> Exec.key_fn fnctx es in
  let instr = env.Exec.analyze in
  let t0 = if instr then Exec_stats.now () else 0. and p0 = Exec.pages_now () in
  let old = t.pages in
  let pages = Hashtbl.create (max 16 (Hashtbl.length old)) in
  let chain = ref [] (* the pages in reverse chain order *) in
  let evaluated = ref 0 and kept = ref 0 in
  let scanned = ref 0 and passed = ref 0 in
  let evaluate pid =
    incr evaluated;
    let p = env.Exec.read pid in
    let rows = ref [] in
    Storage.Page.iter_spans p ~f:(fun _slot off len ->
        incr scanned;
        let row = decode p ~off ~len in
        if Exec.passes fnctx filters row then rows := row :: !rows);
    let rows = Array.of_list (List.rev !rows) in
    passed := !passed + Array.length rows;
    { pg_next = Storage.Page.next p; pg_keys = Array.map key_of rows; pg_rows = rows }
  in
  (* Walk the chain as of [sid]: an unchanged page keeps its rows and
     its next link; a changed or new one is read at [sid]. *)
  let rec walk pid =
    if pid >= 0 then begin
      let pg =
        match changed with
        | Some ch when not (Hashtbl.mem ch pid) -> (
          match Hashtbl.find_opt old pid with Some pg -> pg | None -> evaluate pid)
        | _ -> evaluate pid
      in
      kept := !kept + Array.length pg.pg_rows;
      if !kept > t.max_rows then raise Over_budget;
      Hashtbl.replace pages pid pg;
      chain := pg :: !chain;
      walk pg.pg_next
    end
  in
  let within =
    match Exec.attributed env tbl (fun () -> walk tbl.Catalog.theap) with
    | () -> true
    | exception Over_budget -> false
  in
  Obs.Scope.add Exec.c_rows_scanned !scanned;
  if not within then begin
    note_plain t;
    t.over_budget <- true;
    Exec.stream_plan env bound
  end
  else begin
    let gs = Exec.new_groups fnctx c in
    List.iter
      (fun pg ->
        Array.iteri (fun r key -> Exec.group_step_keyed fnctx gs key pg.pg_rows.(r)) pg.pg_keys)
      (List.rev !chain);
    let reused = Hashtbl.length pages - !evaluated in
    Obs.Scope.add c_evaluated !evaluated;
    Obs.Scope.add c_reused reused;
    if instr then begin
      (* The scan operator's actuals count the rows this evaluation
         actually produced from the pages it read. *)
      let sl = first.Plan.sc_op.Plan.op_slot in
      sl.Plan.o_loops <- sl.Plan.o_loops + 1;
      sl.Plan.o_rows <- sl.Plan.o_rows + !passed;
      sl.Plan.o_elapsed_s <- sl.Plan.o_elapsed_s +. (Exec_stats.now () -. t0);
      sl.Plan.o_pages <- sl.Plan.o_pages + (Exec.pages_now () - p0)
    end;
    t.plan <- Some cached;
    t.sid <- sid;
    t.pages <- pages;
    t.last <-
      Some
        { mode = (match changed with Some _ -> Delta | None -> Full);
          evaluated = !evaluated;
          reused };
    let groups = List.rev gs.Exec.gs_rev in
    Exec.counted (Exec.finish_core env c (fun push -> Exec.emit_group_list fnctx c groups push))
  end
