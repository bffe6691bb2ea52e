(* Database integrity checking (the PRAGMA integrity_check analogue).

   Walks the catalog, every heap chain and every index B+tree, and
   verifies the structural invariants the engine relies on:
   - heap chains are acyclic and made of heap pages;
   - every stored row decodes and matches its table's arity;
   - B+tree pages have the right kinds, every node is sorted, every
     entry lies within the separator bounds of the path that routes to
     it, and the leaf chain visits the leaves in key order;
   - every index entry points at a live heap row whose key columns
     equal the entry key, and the entry count equals the row count;
   - no page is claimed by two structures;
   - every committed page matches its install-time checksum, and every
     archived Pagelog block matches its append-time checksum (with the
     snapshots referencing a corrupt block named);
   - no snapshot epoch archives a page twice (a snapshot's delta is its
     Maplog entry count only under that invariant).

   Returns a list of problem descriptions; empty means healthy. *)

module R = Storage.Record

let check (db : Db.t) : string list =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let read = Db.read_current db in
  let cat = try Some (Catalog.load read) with e ->
    problem "catalog unreadable: %s" (Printexc.to_string e);
    None
  in
  (match cat with
  | None -> ()
  | Some cat ->
    let owner : (int, string) Hashtbl.t = Hashtbl.create 64 in
    let claim pid who =
      match Hashtbl.find_opt owner pid with
      | Some other -> problem "page %d claimed by both %s and %s" pid other who
      | None -> Hashtbl.add owner pid who
    in
    (* heaps (including the catalog heap itself) *)
    let check_heap ~who ~arity first =
      let rows = ref 0 in
      let rec walk pid hops =
        if hops > 1_000_000 then problem "%s: heap chain too long (cycle?)" who
        else begin
          claim pid who;
          (* a corrupted page can make any of these raise (bad kind
             byte, garbled slot directory); report and stop the chain
             rather than abort the whole check *)
          match
            let p = read pid in
            (match Storage.Page.kind p with
            | Storage.Page.Heap_page -> ()
            | _ -> problem "%s: page %d is not a heap page" who pid);
            Storage.Page.iter p ~f:(fun slot data ->
                incr rows;
                match R.decode_row data with
                | row ->
                  if arity > 0 && Array.length row <> arity then
                    problem "%s: row at (%d,%d) has %d columns, expected %d" who pid slot
                      (Array.length row) arity
                | exception e ->
                  problem "%s: row at (%d,%d) does not decode: %s" who pid slot
                    (Printexc.to_string e));
            Storage.Page.next p
          with
          | next -> if next >= 0 then walk next (hops + 1)
          | exception e -> problem "%s: page %d unreadable: %s" who pid (Printexc.to_string e)
        end
      in
      walk first 0;
      !rows
    in
    ignore (check_heap ~who:"catalog" ~arity:0 Catalog.catalog_root);
    let table_rows : (string, int) Hashtbl.t = Hashtbl.create 16 in
    Catalog.iter_tables cat ~f:(fun (tbl : Catalog.table) ->
        let who = "table " ^ tbl.Catalog.tname in
        let rows =
          check_heap ~who ~arity:(Array.length tbl.Catalog.tcols) tbl.Catalog.theap
        in
        Hashtbl.replace table_rows (String.lowercase_ascii tbl.Catalog.tname) rows);
    (* indexes *)
    Catalog.iter_indexes cat ~f:(fun (idx : Catalog.index) ->
        let who = "index " ^ idx.Catalog.iname in
        match Catalog.find_table cat idx.Catalog.itable with
        | None -> problem "%s references missing table %s" who idx.Catalog.itable
        | Some tbl ->
          let heap = Storage.Heap.open_existing tbl.Catalog.theap in
          let bt = Storage.Btree.open_existing idx.Catalog.iroot in
          (* page kinds, node order and separator bounds along the tree:
             a node's composites ascend strictly, and every composite
             under child i of an interior node lies in [sep_i,
             sep_(i+1)), the child left of sep_0 below sep_0; [lo]
             (inclusive) and [hi] (exclusive) carry those bounds down,
             [None] being unbounded *)
          let pp (key, rid) =
            Printf.sprintf "(%s; rid %d)"
              (String.concat "," (Array.to_list (Array.map R.value_to_string key))) rid
          in
          (* composite and child of an entry ending in [trailing] INTEGERs *)
          let composite ~trailing row =
            let n = Array.length row in
            match row.(n - trailing), row.(n - 1) with
            | R.Int rid, R.Int child -> ((Array.sub row 0 (n - trailing), rid), child)
            | _ -> invalid_arg "malformed entry"
          in
          let leaves = ref [] in
          let rec walk pid depth ~lo ~hi =
            if depth > 64 then problem "%s: tree too deep (cycle?)" who
            else begin
              claim pid who;
              match
                let p = read pid in
                let kind = Storage.Page.kind p in
                let trailing = if kind = Storage.Page.Btree_interior then 2 else 1 in
                let entries = ref [] in
                (match kind with
                | Storage.Page.Btree_leaf | Storage.Page.Btree_interior ->
                  Storage.Page.iter p ~f:(fun _ data ->
                      entries := composite ~trailing (R.decode_row data) :: !entries)
                | _ -> ());
                (kind, Storage.Page.aux p, List.rev !entries)
              with
              | (Storage.Page.Btree_leaf | Storage.Page.Btree_interior) as kind, leftmost, entries
                ->
                let prev = ref None in
                List.iter
                  (fun (c, _) ->
                    (match !prev with
                    | Some c' when Storage.Btree.compare_composite c' c >= 0 ->
                      problem "%s: entries out of order in page %d" who pid
                    | _ -> ());
                    prev := Some c;
                    let below_lo =
                      match lo with Some l -> Storage.Btree.compare_composite c l < 0 | None -> false
                    and not_below_hi =
                      match hi with Some h -> Storage.Btree.compare_composite c h >= 0 | None -> false
                    in
                    if below_lo || not_below_hi then
                      problem "%s: %s %s in page %d lies outside its separator bounds" who
                        (if kind = Storage.Page.Btree_leaf then "entry" else "separator")
                        (pp c) pid)
                  entries;
                if kind = Storage.Page.Btree_leaf then leaves := pid :: !leaves
                else begin
                  let rec children child ~lo = function
                    | [] -> walk child (depth + 1) ~lo ~hi
                    | (sep, next) :: rest ->
                      walk child (depth + 1) ~lo ~hi:(Some sep);
                      children next ~lo:(Some sep) rest
                  in
                  children leftmost ~lo entries
                end
              | _ -> problem "%s: page %d is not an index page" who pid
              | exception e ->
                problem "%s: page %d unreadable: %s" who pid (Printexc.to_string e)
            end
          in
          walk idx.Catalog.iroot 0 ~lo:None ~hi:None;
          (* the leaf chain visits the leaves in key (in-order) order *)
          (match List.rev !leaves with
          | [] -> ()
          | first :: _ as in_order ->
            let n = List.length in_order in
            let rec chain pid acc steps =
              if pid < 0 || steps > n then List.rev acc
              else
                match Storage.Page.next (read pid) with
                | next -> chain next (pid :: acc) (steps + 1)
                | exception _ -> List.rev (pid :: acc)
            in
            if chain first [] 0 <> in_order then
              problem "%s: leaf chain does not follow key order" who);
          (* every entry backed by a matching heap row *)
          let entries = ref 0 in
          (try
            Storage.Btree.iter_all read bt ~f:(fun key rid ->
              incr entries;
              match Storage.Heap.get read heap rid with
              | None -> problem "%s: entry (%s, rid %d) has no heap row" who
                          (String.concat "," (Array.to_list (Array.map R.value_to_string key)))
                          rid
              | Some data ->
                let row = R.decode_row data in
                let want = Exec.index_key tbl idx row in
                if R.compare_row want key <> 0 then
                  problem "%s: entry key mismatch at rid %d" who rid)
          with e -> problem "%s: scan failed: %s" who (Printexc.to_string e));
          let rows =
            Option.value
              (Hashtbl.find_opt table_rows (String.lowercase_ascii tbl.Catalog.tname))
              ~default:0
          in
          if !entries <> rows then
            problem "%s: %d entries vs %d table rows" who !entries rows));
  (* page-image checksums: a committed page mutated behind the pager's
     back (or flipped in memory) no longer matches its install-time CRC *)
  List.iter
    (fun pid -> problem "page %d fails checksum" pid)
    (Storage.Pager.verify_checksums db.Db.pager);
  (* archive checksums, scoped to the snapshots they damage *)
  (match db.Db.retro with
  | None -> ()
  | Some retro ->
    List.iter
      (fun (snap_id, pl_off) ->
        problem "snapshot %d references corrupt pagelog block %d" snap_id pl_off)
      (Retro.scrub retro);
    List.iter
      (fun (snap_id, pid) -> problem "snapshot %d's epoch archives page %d twice" snap_id pid)
      (Retro.epoch_duplicates retro));
  List.rev !problems

(* Convenience wrapper that raises on corruption. *)
let check_exn db =
  match check db with
  | [] -> ()
  | problems ->
    Sql_error.error "integrity check failed:\n  %s" (String.concat "\n  " problems)
