(* TPC-H refresh functions.

   RF1 inserts a batch of new orders and their lineitems; RF2 deletes a
   batch of existing orders and their lineitems.  The paper's update
   workload drives these between snapshot declarations.  As in dbgen's
   refresh streams, RF2 deletes the lowest existing order keys: deletes
   are clustered on the oldest heap pages, freed pages are recycled by
   RF1's inserts, and the table is rewritten front-to-back — giving each
   update workload the well-defined overwrite cycle of §4 (UW30: ~50
   snapshots, UW15: ~100). *)

module R = Storage.Record
module Sq = Sqldb

(* RF1: insert [count] new orders with fresh keys.  New orders are open
   ('O'), with recent dates, as the refresh stream produces. *)
let rf1 st db ~count =
  let orders = ref [] and lineitems = ref [] in
  for _ = 1 to count do
    let key = st.Dbgen.next_orderkey in
    st.Dbgen.next_orderkey <- key + 1;
    Dbgen.push_live st key;
    let day = Rng.int_range st.Dbgen.rng (Data.max_order_day - 200) Data.max_order_day in
    orders := Dbgen.make_order st ~key ~status:"O" ~day :: !orders;
    lineitems := List.rev_append (Dbgen.lineitems_for st ~orderkey:key ~day) !lineitems
  done;
  Dbgen.bulk_insert db "orders" (List.rev !orders);
  Dbgen.bulk_insert db "lineitem" (List.rev !lineitems);
  count

module Keys = Hashtbl.Make (Int)

(* Delete all rows of [table] whose [keycol] is in [keys], maintaining
   any indexes; one scan, one transaction.  The scan tests every row's
   key column in place against an int-keyed table and decodes the whole
   row (which index maintenance needs) only for victims; every other
   row decodes to the shared [[||]], which no victim can be, since a
   victim has a key column. *)
let delete_by_key db ~table ~keycol keys =
  let env = Sq.Exec.current_env db in
  let tbl = Dbgen.find_table env table in
  let kpos = Sq.Planner.col_pos tbl keycol in
  let keyset = Keys.create (Array.length keys) in
  Array.iter (fun k -> Keys.replace keyset k ()) keys;
  let victim = Keys.mem keyset in
  let decode p ~off ~len =
    if R.int_col_satisfies kpos victim p ~off ~len then R.decode_bytes p ~off ~len else [||]
  in
  let victims = ref [] in
  Sq.Exec.scan_heap env tbl ~decode ~f:(fun rid row ->
      if Array.length row > 0 then victims := (rid, row) :: !victims);
  Sq.Db.with_write_txn db (fun txn -> Sq.Exec.delete_rows txn (Sq.Exec.writer env tbl) !victims)

(* RF2: delete the [count] oldest live orders and their lineitems. *)
let rf2 st db ~count =
  let keys = Dbgen.take_oldest_live st count in
  let deleted_orders = delete_by_key db ~table:"orders" ~keycol:"o_orderkey" keys in
  let _deleted_items = delete_by_key db ~table:"lineitem" ~keycol:"l_orderkey" keys in
  deleted_orders
