(* The system catalog, stored on ordinary database pages (a heap file
   rooted at page 0) so that snapshots capture it: a query running AS OF
   a snapshot resolves tables, schemas and index roots exactly as they
   existed in that snapshot, as the paper requires. *)

module R = Storage.Record

type table = {
  tname : string;
  tcols : (string * string) array; (* name, declared type *)
  theap : int;                     (* heap chain head page *)
}

type index = {
  iname : string;
  itable : string;
  icols : string list;
  iroot : int; (* fixed B+tree root page *)
}

type t = {
  tables : (string, table * int) Hashtbl.t;  (* lowercase name -> (table, catalog rid) *)
  indexes : (string, index * int) Hashtbl.t; (* lowercase name -> (index, catalog rid) *)
}

let catalog_root = 0

let key = String.lowercase_ascii

(* The catalog heap must be the first allocation in a fresh database. *)
let bootstrap txn =
  let h = Storage.Heap.create txn in
  if Storage.Heap.first_page h <> catalog_root then
    invalid_arg "Catalog.bootstrap: catalog heap must occupy page 0"

let heap () = Storage.Heap.open_existing catalog_root

let encode_table (t : table) =
  let cols =
    Array.to_list t.tcols
    |> List.concat_map (fun (n, ty) -> [ R.Text n; R.Text ty ])
  in
  R.encode_row
    (Array.of_list
       ([ R.Text "table"; R.Text t.tname; R.Int t.theap; R.Int (Array.length t.tcols) ] @ cols))

let encode_index (i : index) =
  R.encode_row
    (Array.of_list
       ([ R.Text "index"; R.Text i.iname; R.Text i.itable; R.Int i.iroot;
          R.Int (List.length i.icols) ]
       @ List.map (fun c -> R.Text c) i.icols))

let text = function R.Text s -> s | v -> invalid_arg ("Catalog: expected text, got " ^ R.value_to_string v)
let int = function R.Int i -> i | v -> invalid_arg ("Catalog: expected int, got " ^ R.value_to_string v)

let decode_row rid (row : R.row) t =
  match text row.(0) with
  | "table" ->
    let ncols = int row.(3) in
    let tcols =
      Array.init ncols (fun i -> (text row.(4 + (2 * i)), text row.(4 + (2 * i) + 1)))
    in
    let tbl = { tname = text row.(1); tcols; theap = int row.(2) } in
    Hashtbl.replace t.tables (key tbl.tname) (tbl, rid)
  | "index" ->
    let ncols = int row.(4) in
    let icols = List.init ncols (fun i -> text row.(5 + i)) in
    let idx = { iname = text row.(1); itable = text row.(2); icols; iroot = int row.(3) } in
    Hashtbl.replace t.indexes (key idx.iname) (idx, rid)
  | k -> invalid_arg ("Catalog: unknown entry kind " ^ k)

(* Load the whole catalog through [read] — the committed state, a
   transaction view, or a Retro snapshot. *)
let load (read : Storage.Pager.read) : t =
  let t = { tables = Hashtbl.create 16; indexes = Hashtbl.create 16 } in
  Storage.Heap.iter_spans read (heap ()) ~f:(fun rid p off len ->
      decode_row rid (R.decode_bytes p ~off ~len) t);
  t

let find_table t name = Option.map fst (Hashtbl.find_opt t.tables (key name))
let find_index t name = Option.map fst (Hashtbl.find_opt t.indexes (key name))

let indexes_of_table t name =
  Hashtbl.fold
    (fun _ (idx, _) acc -> if key idx.itable = key name then idx :: acc else acc)
    t.indexes []

let table_names t = Hashtbl.fold (fun _ (tbl, _) acc -> tbl.tname :: acc) t.tables []

(* One catalog heap row: a definition no page holds is the statement's error. *)
let store txn name entry =
  let n = String.length entry and most = Storage.Heap.max_record in
  if n > most then Sql_error.error "definition of %s too large: %d bytes (at most %d)" name n most;
  ignore (Storage.Heap.insert txn (heap ()) entry)

let add_table txn (tbl : table) = store txn tbl.tname (encode_table tbl)

let add_index txn (idx : index) = store txn idx.iname (encode_index idx)

let remove_table t txn name =
  match Hashtbl.find_opt t.tables (key name) with
  | None -> false
  | Some (_, rid) ->
    ignore (Storage.Heap.delete txn (heap ()) rid);
    true

let remove_index t txn name =
  match Hashtbl.find_opt t.indexes (key name) with
  | None -> false
  | Some (_, rid) ->
    ignore (Storage.Heap.delete txn (heap ()) rid);
    true

let iter_tables t ~f = Hashtbl.iter (fun _ (tbl, _) -> f tbl) t.tables

let iter_indexes t ~f = Hashtbl.iter (fun _ (idx, _) -> f idx) t.indexes
