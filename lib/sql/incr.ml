(* Delta-driven evaluation of one query over a sequence of snapshots:
   the RQL snapshot loop's Qq, when the optimizer found it delta-safe
   (Opt.delta_verdict — a heap scan, hash joins over heap tables,
   filters, and a projection or aggregates).

   The query's result over a snapshot is a function of its sources'
   heap pages in chain order.  This evaluator keeps, per FROM source and
   heap page, the rows of that page that pass the source's filters
   (decoded, with a key per row).  The first snapshot evaluates every
   page.  For each later snapshot, the archive names the pages modified
   between the two declarations (Retro.changed_pages); only those, and
   pages the previous snapshot did not have, are read and re-evaluated,
   and the rest keep their rows.  The kept rows are then joined,
   projected or aggregated by the ordinary executor's code, so the
   result — same rows, same order, same groups and representative rows,
   same float sums — is what the ordinary executor computes on the
   whole snapshot (Dignös et al.'s snapshot reducibility; the test
   suite checks it against the ordinary executor).

   A lone aggregating source keys its rows by group, and the kept rows
   are aggregated directly.  Any other core streams its kept driving
   rows, in chain and slot order, through {!Exec.stream_core}.  The
   inner source of a hash join keys its rows by join key and keeps a
   covering index from each key to its rows, each tagged with its
   page's chain position: last page first, a page's rows last slot
   first.  A probe so lists a key's rows in reverse scan order, the
   order in which the plain executor's build conses them; re-reading a
   page swaps only that page's rows.  Chain positions are stable while
   the heap only grows at its tail; when a kept page moves, the index
   is rebuilt from the kept rows.

   Asked before an evaluation ({!request_changes}), a delta of a core
   that does not aggregate also says how it changed its output: the
   output rows of the driving pages it re-read or that left the chain,
   as the previous snapshot had them, and of the pages it re-read or
   that joined, as this one has them.  Every other output row comes
   from a page both snapshots share (and, in a join, from inner sources
   that did not change), so the two outputs differ by exactly that.

   The kept rows are bounded: an evaluation that would keep more than
   the evaluator's [max_rows], over all sources, runs the ordinary
   executor instead, and so does every later evaluation with it.

   An evaluation starts over ("full") when there is no previous
   snapshot, when the plan was re-planned, or when the previous snapshot
   has since been vacuumed; otherwise it is a "delta", forwards or
   backwards, over any distance.  The previous snapshot may be one of
   an earlier run: an evaluator outlives its run when the RQL context
   keeps it for the next run of its Qq. *)

module R = Storage.Record
module Jtbl = Exec.Jtbl

(* A heap page's rows passing its source's filters, in slot order, and
   the page's position in its chain.  A lone source also keeps each
   row's group key ([pg_keys]; empty otherwise). *)
type page = { pg_pos : int; pg_next : int; pg_keys : string array; pg_rows : R.row array }

(* One source's kept pages: heap page id -> its rows. *)
type pages = (int, page) Hashtbl.t

(* A join key's rows in the covering index, each with its page's chain
   position: positions descending, a page's rows in reverse slot order.
   That is reverse scan order, in which a probe lists them. *)
type rows = Nil | Row of int * R.row * rows

(* The inner source of a hash join: its pages, and the index from each
   join key to its rows. *)
type inner = { in_pages : pages; in_index : rows ref Jtbl.t }

(* A delta names its base: the snapshot it evaluated from. *)
type mode = Full | Delta of int

let mode_to_string = function Full -> "full" | Delta _ -> "delta"

(* How a delta changed a core's output rows: [before] are the output
   rows of the driving pages it re-read or that left the chain, as its
   base snapshot had them; [after] those of the pages it re-read or that
   joined, as this snapshot has them, in chain and slot order. *)
type changes = { before : R.row list; after : R.row list }

(* What the last evaluation did. *)
type report = {
  mode : mode;
  evaluated : int; (* heap pages read and re-evaluated, over all sources *)
  reused : int; (* heap pages whose rows carried over, over all sources *)
  changes : changes option;
      (* a delta of a core that does not aggregate, from the requested
         base, when no inner source changed *)
}

type t = {
  max_rows : int; (* most rows kept across all sources' pages *)
  mutable over_budget : bool; (* a snapshot needed more: run plain *)
  mutable plan : Plan.t option; (* the cached plan the pages belong to *)
  mutable sid : int; (* the snapshot they describe *)
  mutable kept : int; (* the rows they hold, over all sources *)
  mutable drive : pages; (* the driving source *)
  mutable inners : inner list; (* the hash joins' inner sources, in FROM order *)
  mutable changes_from : int option; (* the next evaluation's changes request *)
  mutable last : report option;
}

(* A kept row costs its full width plus its read values: 170 bytes for
   one column of lineitem, 260 for five (64-bit OCaml), so the default
   bounds the kept rows at 40-65 MB.  TPC-H SF 0.01's largest table
   holds 60 000 rows. *)
let default_max_rows = 250_000

(* An evaluator belongs to one loop at a time. *)
let create ?(max_rows = default_max_rows) () =
  { max_rows;
    over_budget = false;
    plan = None;
    sid = 0;
    kept = 0;
    drive = Hashtbl.create 1;
    inners = [];
    changes_from = None;
    last = None }

let last t = t.last

(* Ask the next evaluation for its output changes, should it be a delta
   from snapshot [base]. *)
let request_changes t ~base = t.changes_from <- Some base

(* Can the next evaluation of [cached] be a delta from the kept
   snapshot? *)
let resumes t ~cached retro =
  match t.plan with
  | Some p -> p == cached && not (Retro.is_vacuumed retro t.sid)
  | None -> false

(* The rows the evaluator keeps for a later delta; None when it keeps
   no snapshot (it has not evaluated one, its last evaluation ran the
   ordinary executor or it went over its budget). *)
let kept t = if t.over_budget || t.plan = None then None else Some t.kept

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
  t.kept <- 0;
  t.drive <- Hashtbl.create 1;
  t.inners <- [];
  t.changes_from <- None;
  t.last <- None

exception Over_budget

(* --- the covering index ------------------------------------------------ *)

(* Add [row] of the page at [pos] to a key's rows, ahead of the page's
   earlier rows.  Pages are indexed in chain order when the index is
   built, so the row then goes first. *)
let rec place pos row = function
  | Row (p, r, rest) when p > pos -> Row (p, r, place pos row rest)
  | l -> Row (pos, row, l)

(* Take out the rows of the page at [pos]. *)
let rec unplace pos = function
  | Row (p, r, rest) when p > pos -> Row (p, r, unplace pos rest)
  | Row (p, _, rest) when p = pos -> unplace pos rest
  | l -> l

(* Index (or take out) a page's rows by [key], the join key; a row
   whose key holds a NULL joins nothing and stays out. *)
let index_page ix key pg =
  Array.iter
    (fun row ->
      let k = key row in
      if Exec.Jkey.matchable k then
        match Jtbl.find_opt ix k with
        | Some b -> b := place pg.pg_pos row !b
        | None -> Jtbl.add ix k (ref (Row (pg.pg_pos, row, Nil))))
    pg.pg_rows

let unindex_page ix key pg =
  Array.iter
    (fun row ->
      let k = key row in
      match Jtbl.find_opt ix k with
      | Some b -> ( match unplace pg.pg_pos !b with Nil -> Jtbl.remove ix k | l -> b := l)
      | None -> ())
    pg.pg_rows

let lookup ix k f =
  let rec go = function
    | Row (_, row, rest) ->
      f row;
      go rest
    | Nil -> ()
  in
  match Jtbl.find_opt ix k with Some b -> go !b | None -> ()

(* --- evaluation ----------------------------------------------------------- *)

(* One source's walk over its chain as of the snapshot. *)
type walk = {
  w_pages : pages;
  w_chain : page list; (* reverse chain order *)
  w_fresh : page list; (* the pages read and evaluated *)
  w_moved : bool; (* a kept page changed its chain position *)
}

(* Walk [tbl]'s chain as of [env]'s snapshot: with [changed], a page
   outside it keeps its record from [old]; any other page is read,
   evaluated and passed to [fresh] with its old record, if any.  [kept]
   counts the rows kept over all sources. *)
let walk t env ~changed ~kept (old : pages) (tbl : Catalog.table) ?(fresh = fun _ _ -> ())
    evaluate =
  let pages = Hashtbl.create (max 16 (Hashtbl.length old)) in
  let chain = ref [] and evaluated = ref [] and moved = ref false in
  let rec go pos pid =
    if pid >= 0 then begin
      let prior = Hashtbl.find_opt old pid in
      let pg =
        match changed, prior with
        | Some ch, Some pg when not (Hashtbl.mem ch pid) ->
          if pg.pg_pos = pos then pg
          else begin
            moved := true;
            { pg with pg_pos = pos }
          end
        | _ ->
          (match prior with Some o when o.pg_pos <> pos -> moved := true | _ -> ());
          let pg = evaluate pos (env.Exec.read pid) in
          evaluated := pg :: !evaluated;
          fresh prior pg;
          pg
      in
      kept := !kept + Array.length pg.pg_rows;
      if !kept > t.max_rows then raise Over_budget;
      Hashtbl.replace pages pid pg;
      chain := pg :: !chain;
      go (pos + 1) pg.pg_next
    end
  in
  Exec.attributed env tbl (fun () -> go 0 tbl.Catalog.theap);
  { w_pages = pages; w_chain = !chain; w_fresh = !evaluated; w_moved = !moved }

(* Bring a hash join's inner source, as the previous evaluation left it
   ([prev]), to the snapshot.  The walk swaps each re-read page's rows in
   the index as it goes (into a new index when this is no delta); pages
   that left the chain are taken out after it.  If a kept page moved,
   the index is rebuilt from the kept rows. *)
let update_inner t env ~changed ~kept (prev : inner option) tbl ~key evaluate =
  let old, ix =
    match prev, changed with
    | Some i, Some _ -> (i.in_pages, i.in_index)
    | _ -> (Hashtbl.create 1, Jtbl.create 1024)
  in
  let fresh old_pg pg =
    Option.iter (unindex_page ix key) old_pg;
    index_page ix key pg
  in
  let w = walk t env ~changed ~kept old tbl ~fresh evaluate in
  let ix =
    if w.w_moved then begin
      let ix = Jtbl.create (Jtbl.length ix) in
      List.iter (index_page ix key) (List.rev w.w_chain);
      ix
    end
    else begin
      Hashtbl.iter (fun pid o -> if not (Hashtbl.mem w.w_pages pid) then unindex_page ix key o) old;
      ix
    end
  in
  ({ in_pages = w.w_pages; in_index = ix }, w)

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
  let first, joins =
    match c.Plan.c_from with
    | Plan.From_scan { first; joins; _ } ->
      ( first,
        List.map
          (fun (js : Plan.join_step) ->
            match js.Plan.j_plan with
            | Plan.Hash_join { equi; filters } -> (js, equi, filters)
            | _ -> invalid_arg "Incr.eval: plan is not delta-safe")
          joins )
    | Plan.From_none -> invalid_arg "Incr.eval: plan is not delta-safe"
  in
  let retro = Db.retro_exn env.Exec.db in
  let base = if resumes t ~cached retro then Some t.sid else None in
  let changed = Option.map (fun base -> Retro.changed_pages retro base sid) base in
  let requested = t.changes_from in
  t.changes_from <- None;
  (* The kept state is mid-update until this evaluation completes: an
     exception on the way leaves the next one starting over. *)
  t.plan <- None;
  let fnctx = Db.fn_ctx env.Exec.db in
  let decoders = List.map R.decode_cols (Plan.projections c) in
  let instr = env.Exec.analyze in
  let scanned = ref 0 and kept = ref 0 in
  (* A source's page evaluator: a page's rows passing [filters], with
     their [group] keys when given.  The rows are gathered in a scratch
     array reused across the pages. *)
  let evaluate decode filters ~group =
    let rows = ref [||] and n = ref 0 in
    let push row =
      if !n = Array.length !rows then rows := Array.append !rows (Array.make (max 64 !n) row);
      !rows.(!n) <- row;
      incr n
    in
    fun pos p ->
      n := 0;
      Storage.Page.iter_spans p ~f:(fun _slot off len ->
          incr scanned;
          let row = decode p ~off ~len in
          if Exec.passes fnctx filters row then push row);
      let pg_rows = Array.sub !rows 0 !n in
      { pg_pos = pos;
        pg_next = Storage.Page.next p;
        pg_keys = (match group with Some key -> Array.map key pg_rows | None -> [||]);
        pg_rows }
  in
  let group =
    match joins, c.Plan.c_group with
    | _ when not c.Plan.c_has_agg -> None
    | [], (_ :: _ as es) -> Some (Exec.key_fn fnctx es)
    | [], [] -> Some (fun _ -> "")
    | _ -> None
  in
  (* With changes to report: the driving pages re-read, each with its
     old record, in reverse chain order. *)
  let diff = Option.is_some base && base = requested && not c.Plan.c_has_agg in
  let redone = ref [] in
  let fresh = if diff then fun prior pg -> redone := (prior, pg) :: !redone else fun _ _ -> () in
  let old_drive = t.drive and old_inners = t.inners in
  let t0 = if instr then Exec_stats.now () else 0. and p0 = Exec.pages_now () in
  let work () =
    let drive =
      walk t env ~changed ~kept old_drive first.Plan.sc_src.Plan.s_tbl ~fresh
        (evaluate (List.hd decoders) first.Plan.sc_filters ~group)
    in
    let t1 = if instr then Exec_stats.now () else 0. and p1 = Exec.pages_now () in
    let prev =
      match changed with
      | Some _ -> List.map Option.some t.inners
      | None -> List.map (fun _ -> None) joins
    in
    let inners =
      List.map2
        (fun ((js : Plan.join_step), equi, filters) (prev, decode) ->
          let t_in = if instr then Exec_stats.now () else 0. and p_in = Exec.pages_now () in
          let r =
            Exec_stats.time_index (fun () ->
                let key = Exec.join_key fnctx (List.map snd equi) in
                update_inner t env ~changed ~kept prev js.Plan.j_src.Plan.s_tbl ~key
                  (evaluate decode filters ~group:None))
          in
          if instr then begin
            (* the index maintenance is the join's build *)
            let sl = js.Plan.j_op.Plan.op_slot in
            sl.Plan.o_elapsed_s <- sl.Plan.o_elapsed_s +. (Exec_stats.now () -. t_in);
            sl.Plan.o_pages <- sl.Plan.o_pages + (Exec.pages_now () - p_in)
          end;
          r)
        joins
        (List.combine prev (List.tl decoders))
    in
    (drive, (t1, p1), inners)
  in
  match work () with
  | exception Over_budget ->
    Obs.Scope.add Exec.c_rows_scanned !scanned;
    note_plain t;
    t.over_budget <- true;
    Exec.stream_plan env bound
  | drive, (t1, p1), inners ->
    Obs.Scope.add Exec.c_rows_scanned !scanned;
    let walks = List.map snd inners in
    let evaluated =
      List.fold_left (fun n w -> n + List.length w.w_fresh) (List.length drive.w_fresh) walks
    in
    let held =
      List.fold_left (fun n w -> n + Hashtbl.length w.w_pages) (Hashtbl.length drive.w_pages) walks
    in
    let reused = held - evaluated in
    Obs.Scope.add c_evaluated evaluated;
    Obs.Scope.add c_reused reused;
    if instr then begin
      (* The scan operator hands on every kept row, as the plain scan
         does; its pages and time are this evaluation's own. *)
      let sl = first.Plan.sc_op.Plan.op_slot in
      sl.Plan.o_loops <- sl.Plan.o_loops + 1;
      sl.Plan.o_rows <-
        List.fold_left (fun n pg -> n + Array.length pg.pg_rows) sl.Plan.o_rows drive.w_chain;
      sl.Plan.o_elapsed_s <- sl.Plan.o_elapsed_s +. (t1 -. t0);
      sl.Plan.o_pages <- sl.Plan.o_pages + (p1 - p0)
    end;
    let lookups = List.map (fun (i, _) -> lookup i.in_index) inners in
    (* The output of [drive]'s rows, uninstrumented. *)
    let output drive =
      let _, run =
        Exec.stream_core ~kept:{ Exec.k_drive = drive; k_lookups = lookups }
          { env with Exec.analyze = false } c
      in
      let rows = ref [] in
      run (fun r -> rows := r :: !rows);
      List.rev !rows
    in
    let inners_unchanged () =
      List.for_all2
        (fun prev w ->
          w.w_fresh = [] && Hashtbl.length w.w_pages = Hashtbl.length prev.in_pages)
        old_inners walks
    in
    let changes =
      if diff && inners_unchanged () then begin
        let rows pg f = Array.iter f pg.pg_rows in
        let departed =
          Hashtbl.fold
            (fun pid o acc -> if Hashtbl.mem drive.w_pages pid then acc else o :: acc)
            old_drive []
        in
        let before f =
          List.iter (fun (prior, _) -> Option.iter (fun o -> rows o f) prior) !redone;
          List.iter (fun o -> rows o f) departed
        in
        let after f = List.iter (fun (_, pg) -> rows pg f) (List.rev !redone) in
        Some { before = output before; after = output after }
      end
      else None
    in
    t.plan <- Some cached;
    t.sid <- sid;
    t.kept <- !kept;
    t.drive <- drive.w_pages;
    t.inners <- List.map fst inners;
    t.last <-
      Some
        { mode = (match base with Some b -> Delta b | None -> Full); evaluated; reused; changes };
    let chain = List.rev drive.w_chain in
    match inners with
    | [] when c.Plan.c_has_agg ->
      (* a lone aggregating source: its rows carry their group keys *)
      let gs = Exec.new_groups fnctx c in
      List.iter
        (fun pg ->
          Array.iteri (fun r key -> Exec.group_step_keyed fnctx gs key pg.pg_rows.(r)) pg.pg_keys)
        chain;
      let groups = List.rev gs.Exec.gs_rev in
      Exec.counted (Exec.finish_core env c (fun push -> Exec.emit_group_list fnctx c groups push))
    | _ ->
      let kept =
        { Exec.k_drive = (fun f -> List.iter (fun pg -> Array.iter f pg.pg_rows) chain);
          k_lookups = lookups }
      in
      Exec.counted (Exec.stream_core ~kept env c)
