(* dbgen: deterministic population of the TPC-H schema at a given scale
   factor, substituting for the TPC-H dbgen tool (DESIGN.md).  Rows are
   inserted through the engine's internal fast path in batched
   transactions; the initial load happens before any snapshot is
   declared, as in the paper's setup. *)

module R = Storage.Record
module Sq = Sqldb

type state = {
  rng : Rng.t;
  sf : float;
  n_supplier : int;
  n_part : int;
  n_customer : int;
  mutable next_orderkey : int;
  (* live order keys in insertion (= key) order.  RF2 deletes from the
     front — dbgen's refresh stream deletes the lowest existing order
     keys, which is what gives the paper's update workloads their
     clustered page-touch pattern and well-defined overwrite cycles. *)
  mutable live : int array;
  mutable live_head : int; (* first live position *)
  mutable live_tail : int; (* one past the last live position *)
}

let n_live st = st.live_tail - st.live_head

let push_live st key =
  if st.live_tail >= Array.length st.live then begin
    (* compact or grow *)
    let n = n_live st in
    let cap = max 64 (max (Array.length st.live) (2 * n)) in
    let a = Array.make cap 0 in
    Array.blit st.live st.live_head a 0 n;
    st.live <- a;
    st.live_head <- 0;
    st.live_tail <- n
  end;
  st.live.(st.live_tail) <- key;
  st.live_tail <- st.live_tail + 1

(* Remove and return the [count] lowest live order keys (dbgen RF2). *)
let take_oldest_live st count =
  let count = min count (n_live st) in
  let out = Array.sub st.live st.live_head count in
  st.live_head <- st.live_head + count;
  out

(* --- row builders ------------------------------------------------------- *)

let comment rng =
  let n = Rng.int_range rng 2 5 in
  String.concat " " (List.init n (fun _ -> Rng.pick rng Data.comment_words))

let phone rng =
  Printf.sprintf "%02d-%03d-%03d-%04d" (Rng.int_range rng 10 34) (Rng.int_range rng 100 999)
    (Rng.int_range rng 100 999) (Rng.int_range rng 1000 9999)

let money rng lo hi = Float.round (Rng.float_range rng lo hi *. 100.) /. 100.

let part_type rng =
  Printf.sprintf "%s %s %s" (Rng.pick rng Data.type_syllable_1)
    (Rng.pick rng Data.type_syllable_2) (Rng.pick rng Data.type_syllable_3)

let make_region i =
  [| R.Int i; R.Text Data.regions.(i); R.Text "regional comment" |]

let make_nation i =
  let name, region = Data.nations.(i) in
  [| R.Int i; R.Text name; R.Int region; R.Text "national comment" |]

let make_supplier st i =
  [| R.Int i;
     R.Text (Printf.sprintf "Supplier#%09d" i);
     R.Text (comment st.rng);
     R.Int (Rng.int_range st.rng 0 24);
     R.Text (phone st.rng);
     R.Real (money st.rng (-999.99) 9999.99);
     R.Text (comment st.rng) |]

let make_part st i =
  let name =
    String.concat " " (List.init 3 (fun _ -> Rng.pick st.rng Data.part_name_words))
  in
  let m = Rng.int_range st.rng 1 5 in
  [| R.Int i;
     R.Text name;
     R.Text (Printf.sprintf "Manufacturer#%d" m);
     R.Text (Printf.sprintf "Brand#%d%d" m (Rng.int_range st.rng 1 5));
     R.Text (part_type st.rng);
     R.Int (Rng.int_range st.rng 1 50);
     R.Text (Rng.pick st.rng Data.containers_1 ^ " " ^ Rng.pick st.rng Data.containers_2);
     R.Real (money st.rng 900. 2000.);
     R.Text (comment st.rng) |]

let make_partsupp st ~partkey ~suppkey =
  [| R.Int partkey;
     R.Int suppkey;
     R.Int (Rng.int_range st.rng 1 9999);
     R.Real (money st.rng 1. 1000.);
     R.Text (comment st.rng) |]

let make_customer st i =
  [| R.Int i;
     R.Text (Printf.sprintf "Customer#%09d" i);
     R.Text (comment st.rng);
     R.Int (Rng.int_range st.rng 0 24);
     R.Text (phone st.rng);
     R.Real (money st.rng (-999.99) 9999.99);
     R.Text (Rng.pick st.rng Data.segments);
     R.Text (comment st.rng) |]

(* Order status distribution: roughly half the order population is
   finished, a quarter open, a quarter partial (dbgen derives this from
   lineitem status; we draw it directly). *)
let order_status rng =
  match Rng.int_range rng 0 3 with 0 -> "O" | 1 -> "P" | _ -> "F"

let make_order st ~key ~status ~day =
  [| R.Int key;
     R.Int (Rng.int_range st.rng 1 st.n_customer);
     R.Text status;
     R.Real (money st.rng 1000. 450000.);
     R.Text (Data.date_of_day_number day);
     R.Text (Rng.pick st.rng Data.priorities);
     R.Text (Printf.sprintf "Clerk#%09d" (Rng.int_range st.rng 1 1000));
     R.Int 0;
     R.Text (comment st.rng) |]

let make_lineitem st ~orderkey ~linenumber ~day =
  let quantity = Rng.int_range st.rng 1 50 in
  let price = money st.rng 900. 105000. in
  let ship = min Data.max_order_day (day + Rng.int_range st.rng 1 121) in
  let commit = min Data.max_order_day (day + Rng.int_range st.rng 30 90) in
  let receipt = min Data.max_order_day (ship + Rng.int_range st.rng 1 30) in
  [| R.Int orderkey;
     R.Int (Rng.int_range st.rng 1 st.n_part);
     R.Int (Rng.int_range st.rng 1 st.n_supplier);
     R.Int linenumber;
     R.Int quantity;
     R.Real price;
     R.Real (float_of_int (Rng.int_range st.rng 0 10) /. 100.);
     R.Real (float_of_int (Rng.int_range st.rng 0 8) /. 100.);
     R.Text (if Rng.int_range st.rng 0 1 = 0 then "R" else "A");
     R.Text (if Rng.int_range st.rng 0 1 = 0 then "O" else "F");
     R.Text (Data.date_of_day_number ship);
     R.Text (Data.date_of_day_number commit);
     R.Text (Data.date_of_day_number receipt);
     R.Text (Rng.pick st.rng Data.instructs);
     R.Text (Rng.pick st.rng Data.modes);
     R.Text (comment st.rng) |]

let lineitems_for st ~orderkey ~day =
  let n = Rng.int_range st.rng 1 7 in
  List.init n (fun i -> make_lineitem st ~orderkey ~linenumber:(i + 1) ~day)

(* --- bulk loading -------------------------------------------------------- *)

let find_table env name =
  match Sq.Catalog.find_table env.Sq.Exec.cat name with
  | Some t -> t
  | None -> invalid_arg ("Dbgen: no such table " ^ name)

(* Insert [rows] into [name] in batched transactions. *)
let bulk_insert db name rows =
  let env = Sq.Exec.current_env db in
  let tbl = find_table env name in
  let batch = 2000 in
  let rec go rows =
    match rows with
    | [] -> ()
    | _ ->
      let now, rest =
        let rec split i acc = function
          | r :: tl when i < batch -> split (i + 1) (r :: acc) tl
          | tl -> (List.rev acc, tl)
        in
        split 0 [] rows
      in
      Sq.Db.with_write_txn db (fun txn ->
          let w = Sq.Exec.writer env tbl in
          List.iter (fun row -> ignore (Sq.Exec.insert_row txn w row)) now);
      go rest
  in
  go rows

(* Generate the full database at scale factor [sf] into [db].  Returns
   the generator state used by the refresh functions. *)
let generate ?(seed = 42) db ~sf =
  List.iter (fun ddl -> ignore (Sq.Engine.exec db ddl)) Schema.ddl;
  let st =
    { rng = Rng.create seed;
      sf;
      n_supplier = Schema.scaled sf Schema.sf1_supplier 10;
      n_part = Schema.scaled sf Schema.sf1_part 50;
      n_customer = Schema.scaled sf Schema.sf1_customer 30;
      next_orderkey = 1;
      live = Array.make 1024 0;
      live_head = 0;
      live_tail = 0 }
  in
  bulk_insert db "region" (List.init (Array.length Data.regions) make_region);
  bulk_insert db "nation" (List.init (Array.length Data.nations) make_nation);
  bulk_insert db "supplier" (List.init st.n_supplier (fun i -> make_supplier st (i + 1)));
  bulk_insert db "part" (List.init st.n_part (fun i -> make_part st (i + 1)));
  (* partsupp: 4 suppliers per part, as in the spec *)
  let partsupp =
    List.concat_map
      (fun p ->
        List.init 4 (fun _ ->
            make_partsupp st ~partkey:(p + 1) ~suppkey:(Rng.int_range st.rng 1 st.n_supplier)))
      (List.init st.n_part (fun i -> i))
  in
  bulk_insert db "partsupp" partsupp;
  bulk_insert db "customer" (List.init st.n_customer (fun i -> make_customer st (i + 1)));
  let n_orders = Schema.scaled sf Schema.sf1_orders 100 in
  let orders = ref [] and lineitems = ref [] in
  for _ = 1 to n_orders do
    let key = st.next_orderkey in
    st.next_orderkey <- key + 1;
    push_live st key;
    let day = Rng.int_range st.rng 0 Data.max_order_day in
    orders := make_order st ~key ~status:(order_status st.rng) ~day :: !orders;
    lineitems := List.rev_append (lineitems_for st ~orderkey:key ~day) !lineitems
  done;
  bulk_insert db "orders" (List.rev !orders);
  bulk_insert db "lineitem" (List.rev !lineitems);
  st

let order_count st = n_live st
