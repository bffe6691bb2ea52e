(* Output checks by snapshot reducibility (Dignös et al.): an RQL
   result must equal a direct fold over the per-snapshot answers of
   [SELECT AS OF s <Qq>].  The folds here are deliberately naive: they
   share no code with the RQL loop bodies, only the engine's AS OF
   evaluation of Qq. *)

module R = Storage.Record

(* Canonical form of a result table: its rows encoded and sorted. *)
let canonical rows = List.sort compare (List.map R.encode_row rows)

let digest rows = Digest.to_hex (Digest.string (String.concat "\x00" (canonical rows)))

let table_rows (ctx : Rql.ctx) table =
  Sqldb.Engine.query ctx.Rql.meta (Printf.sprintf "SELECT * FROM %s" table)

(* Qq run on snapshot [sid] as an ordinary AS OF statement. *)
let as_of_sql qq sid =
  let prefix = "SELECT " in
  let n = String.length prefix in
  if String.length qq < n || String.sub qq 0 n <> prefix then
    invalid_arg ("Oracle.as_of_sql: Qq must start with SELECT: " ^ qq);
  Printf.sprintf "SELECT AS OF %d %s" sid (String.sub qq n (String.length qq - n))

(* Per-snapshot Qq answers, memoised: ops over overlapping snapshot
   ranges share them. *)
let answers : (string * int, R.row list) Hashtbl.t = Hashtbl.create 64

let as_of (ctx : Rql.ctx) qq sid =
  match Hashtbl.find_opt answers (qq, sid) with
  | Some rows -> rows
  | None ->
    let rows = Sqldb.Engine.query ctx.Rql.data (as_of_sql qq sid) in
    Hashtbl.replace answers (qq, sid) rows;
    rows

(* AggregateDataInVariable(Qq, AVG): the mean of the single value each
   snapshot returns, summed in snapshot order. *)
let agg_var_avg ctx qq sids =
  let sum, n =
    List.fold_left
      (fun (sum, n) sid ->
        match as_of ctx qq sid with
        | [ [| v |] ] -> (
          match Sqldb.Expr.to_number v with Some f -> (sum +. f, n + 1) | None -> (sum, n))
        | _ -> invalid_arg "Oracle.agg_var_avg: Qq must return one single-column row")
      (0., 0) sids
  in
  [ [| (if n = 0 then R.Null else R.Real (sum /. float_of_int n)) |] ]

(* AggregateDataInTable(Qq, (col, MAX)): rows grouped on every other
   column, [col] folded with max over the snapshots a group appears in. *)
let agg_table_max ctx qq ~col sids =
  let groups = Hashtbl.create 1024 in
  let order = ref [] in
  List.iter
    (fun sid ->
      List.iter
        (fun (row : R.row) ->
          let key = Array.mapi (fun i v -> if i = col then R.Null else v) row in
          match Hashtbl.find_opt groups key with
          | None ->
            Hashtbl.replace groups key row;
            order := key :: !order
          | Some (stored : R.row) ->
            if R.compare_value row.(col) stored.(col) > 0 then begin
              let r = Array.copy stored in
              r.(col) <- row.(col);
              Hashtbl.replace groups key r
            end)
        (as_of ctx qq sid))
    sids;
  List.map (Hashtbl.find groups) !order

(* CollateDataIntoIntervals(Qq): each row with the maximal runs of
   consecutive snapshots (of the set, in order) it appears in. *)
let intervals ctx qq sids =
  let open_runs = Hashtbl.create 4096 in
  let closed = ref [] in
  let prev = ref None in
  List.iter
    (fun sid ->
      let seen = Hashtbl.create 4096 in
      List.iter
        (fun (row : R.row) ->
          Hashtbl.replace seen row ();
          match Hashtbl.find_opt open_runs row with
          | Some (start, last) when Some last = !prev -> Hashtbl.replace open_runs row (start, sid)
          | _ -> Hashtbl.replace open_runs row (sid, sid))
        (as_of ctx qq sid);
      (* runs not extended by this snapshot are over *)
      Hashtbl.filter_map_inplace
        (fun row (start, last) ->
          if Hashtbl.mem seen row then Some (start, last)
          else begin
            closed := (row, start, last) :: !closed;
            None
          end)
        open_runs;
      prev := Some sid)
    sids;
  Hashtbl.iter (fun row (start, last) -> closed := (row, start, last) :: !closed) open_runs;
  List.map (fun (row, s, e) -> Array.append row [| R.Int s; R.Int e |]) !closed
