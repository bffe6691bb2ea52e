(* Shared experiment fixtures: TPC-H databases with snapshot histories,
   memoized per configuration so the figures can share them. *)

type config = {
  uw : Tpch.Workload.uw;
  snapshots : int;
  native_lineitem_index : bool; (* Fig 9's "with native index" variant *)
}

type fixture = {
  ctx : Rql.ctx;
  st : Tpch.Dbgen.state;
  config : config;
}

let cache : (string, fixture) Hashtbl.t = Hashtbl.create 8

let key c = Printf.sprintf "%s/%d/%b" c.uw.Tpch.Workload.uname c.snapshots c.native_lineitem_index

let get (c : config) : fixture =
  match Hashtbl.find_opt cache (key c) with
  | Some f -> f
  | None ->
    let sf = (Params.p ()).Params.sf in
    Printf.printf "[fixture] TPC-H SF %g, %s, %d snapshots%s ...%!" sf
      c.uw.Tpch.Workload.uname c.snapshots
      (if c.native_lineitem_index then ", native lineitem index" else "");
    let t0 = Unix.gettimeofday () in
    let ctx = Rql.create () in
    let st = Tpch.Dbgen.generate ctx.Rql.data ~sf in
    if c.native_lineitem_index then
      ignore
        (Sqldb.Engine.exec ctx.Rql.data "CREATE INDEX idx_l_partkey ON lineitem (l_partkey)");
    ignore (Tpch.Workload.run ctx st ~uw:c.uw ~snapshots:c.snapshots);
    (* The figures reproduce the paper's loop, which evaluates Qq afresh
       on every snapshot; experiments that show the delta-driven loop
       switch it on for their own runs. *)
    ignore (Sqldb.Engine.exec ctx.Rql.data "PRAGMA incremental=off");
    Printf.printf " %.1fs (pagelog %.1f MB)\n%!"
      (Unix.gettimeofday () -. t0)
      (float_of_int (Retro.pagelog_size_bytes (Sqldb.Db.retro_exn ctx.Rql.data)) /. 1e6);
    let f = { ctx; st; config = c } in
    Hashtbl.add cache (key c) f;
    f

(* Drop a fixture (frees memory between heavy experiments). *)
let drop (c : config) = Hashtbl.remove cache (key c)

(* The longest snapshot span any Figure 6/7 sweep touches. *)
let fig6_span () =
  let p = Params.p () in
  max
    (List.fold_left max 1 p.Params.fig6_lengths)
    (((List.fold_left max 1 p.Params.fig6_step10_lengths - 1) * 10) + 1)

(* The main long-history fixture for a workload: every snapshot touched
   by the sweeps is "old" (a full overwrite cycle behind it). *)
let main uw =
  let p = Params.p () in
  let n_old = max (fig6_span ()) p.Params.agg_snapshots in
  get { uw; snapshots = Params.history_for uw ~n_old; native_lineitem_index = false }

(* An o_orderdate value such that roughly [fraction] of the orders AS OF
   snapshot [sid] fall before it — used to control Qq_collate's output
   size (Fig 10).  Computed against the snapshot the experiment queries:
   refresh streams shift the date distribution over time, so the current
   state's percentiles would miss. *)
let date_percentile fx ~sid fraction =
  let db = fx.ctx.Rql.data in
  let total =
    Sqldb.Engine.int_scalar db (Printf.sprintf "SELECT AS OF %d COUNT(*) FROM orders" sid)
  in
  let k = max 1 (int_of_float (fraction *. float_of_int total)) in
  match
    Sqldb.Engine.scalar db
      (Printf.sprintf
         "SELECT AS OF %d o_orderdate FROM orders ORDER BY o_orderdate LIMIT 1 OFFSET %d" sid
         (k - 1))
  with
  | Storage.Record.Text d -> d
  | _ -> invalid_arg "date_percentile"
