(* Update workloads: the paper's UW families (Table 1).

   Between two consecutive snapshot declarations, a constant number of
   orders (and their lineitems) are deleted and inserted.  UW15 deletes
   and inserts 15K orders per snapshot at SF 1 (1% of the order
   population); the family scales with the scale factor so the
   diff(S1,S2)-to-database ratio — what the experiments actually measure
   — is preserved.  UW30's overwrite cycle is ~50 snapshots, UW15's
   ~100, as in §4 of the paper. *)

type uw = {
  uname : string;
  fraction : float; (* of the SF1 order population, per snapshot *)
}

let uw7_5 = { uname = "UW7.5"; fraction = 0.005 }
let uw15 = { uname = "UW15"; fraction = 0.01 }
let uw30 = { uname = "UW30"; fraction = 0.02 }
let uw60 = { uname = "UW60"; fraction = 0.04 }

let of_name = function
  | "UW7.5" -> uw7_5
  | "UW15" -> uw15
  | "UW30" -> uw30
  | "UW60" -> uw60
  | s -> invalid_arg ("Workload.of_name: " ^ s)

let orders_per_snapshot uw ~sf =
  max 1 (int_of_float (Float.round (uw.fraction *. float_of_int Schema.sf1_orders *. sf)))

(* Expected overwrite-cycle length (snapshots until the whole order
   population has been rewritten): 1/fraction. *)
let overwrite_cycle uw = int_of_float (Float.round (1. /. uw.fraction))

(* Run the update workload: [snapshots] rounds of (RF2 delete; RF1
   insert; COMMIT WITH SNAPSHOT), recording each snapshot in SnapIds.
   Returns the declared snapshot ids in order. *)
let run (ctx : Rql.ctx) st ~uw ~snapshots =
  let count = orders_per_snapshot uw ~sf:st.Dbgen.sf in
  let sids = ref [] in
  for i = 1 to snapshots do
    ignore (Refresh.rf2 st ctx.Rql.data ~count);
    ignore (Refresh.rf1 st ctx.Rql.data ~count);
    let name = Printf.sprintf "%s-%d" uw.uname i in
    sids := Rql.declare_snapshot ~name ctx :: !sids
  done;
  List.rev !sids

(* Build a complete experiment fixture: fresh ctx, TPC-H data at [sf],
   then [snapshots] rounds of [uw].  This is the setup phase shared by
   the §5 experiments. *)
let build_history ?(seed = 42) ~sf ~uw ~snapshots () =
  let ctx = Rql.create () in
  let st = Dbgen.generate ~seed ctx.Rql.data ~sf in
  let sids = run ctx st ~uw ~snapshots in
  (ctx, st, sids)

(* Hex digest of a database's history: every committed page with its
   stored CRC and the free list, every Pagelog block with its stored
   CRC, the Maplog's entries and boundaries (without the declaration
   timestamps, which differ between runs) and the per-page COW epochs.
   Histories built twice from one seed must give the same digest: the
   check that a storage change kept every byte of them. *)
let history_digest (db : Sqldb.Db.t) =
  let parts = Buffer.create 4096 in
  let ints l = Buffer.add_string parts (Digest.string (String.concat "," (List.map string_of_int l))) in
  let block b crc =
    Buffer.add_string parts (Digest.bytes b);
    ints [ crc ]
  in
  let img = Storage.Pager.dump db.Sqldb.Db.pager in
  Array.iter
    (function Some (b, crc) -> block b crc | None -> ints [ -1 ])
    img.Storage.Pager.img_pages;
  ints img.Storage.Pager.img_free;
  let retro = Retro.export (Sqldb.Db.retro_exn db) in
  Array.iter (fun (b, crc) -> block b crc) retro.Retro.img_pagelog;
  let ml = retro.Retro.img_maplog in
  ints
    (Array.fold_right
       (fun e acc -> e.Retro.Maplog.pid :: e.Retro.Maplog.pl_off :: acc)
       ml.Retro.Maplog.img_entries []);
  ints
    (ml.Retro.Maplog.img_first_live
    :: Array.fold_right
         (fun b acc -> b.Retro.Maplog.pos :: b.Retro.Maplog.db_pages :: acc)
         ml.Retro.Maplog.img_boundaries []);
  ints (Array.to_list retro.Retro.img_saved_epoch);
  Digest.to_hex (Digest.string (Buffer.contents parts))
