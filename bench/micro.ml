(* Bechamel micro-benchmarks for the primitive operations underlying
   the experiments: row codec (full and projected decode), slotted-page
   insert, B+tree insert and lookup, SPT construction, snapshot page
   fetch, page checksum, Qq parsing and rewriting.  One Test.make per
   primitive, all in one executable. *)

open Bechamel
open Toolkit

module R = Storage.Record

let sample_row : R.row =
  [| R.Int 42; R.Text "Customer#000000042"; R.Real 3141.59; R.Null; R.Text "1995-03-15" |]

let encoded = R.encode_row sample_row

let test_encode =
  Test.make ~name:"record.encode_row" (Staged.stage (fun () -> ignore (R.encode_row sample_row)))

let test_decode =
  Test.make ~name:"record.decode_row" (Staged.stage (fun () -> ignore (R.decode_row encoded)))

(* The scan path: one column of the row, decoded in place. *)
let test_decode_cols =
  let b = Bytes.of_string encoded and len = String.length encoded in
  let first_col = R.decode_cols [| true |] in
  Test.make ~name:"record.decode_cols (1 of 5 columns)"
    (Staged.stage (fun () -> ignore (first_col b ~off:0 ~len)))

let test_page_insert =
  let page = Storage.Page.create Storage.Page.Heap_page in
  Test.make ~name:"page.insert+delete"
    (Staged.stage (fun () ->
         match Storage.Page.insert page encoded with
         | Some slot -> ignore (Storage.Page.delete page slot)
         | None -> Storage.Page.init page Storage.Page.Heap_page))

(* A pre-filled B+tree for lookups and (churning) inserts. *)
let btree_fixture =
  lazy
    (let pager = Storage.Pager.create () in
     let tree = Storage.Txn.with_txn pager (fun txn -> Storage.Btree.create txn) in
     Storage.Txn.with_txn pager (fun txn ->
         for i = 1 to 20_000 do
           Storage.Btree.insert txn tree [| R.Int ((i * 7919) mod 20_000) |] i
         done);
     (pager, tree))

let test_btree_lookup =
  Test.make ~name:"btree.lookup (20k entries)"
    (Staged.stage
       (let counter = ref 0 in
        fun () ->
          let pager, tree = Lazy.force btree_fixture in
          incr counter;
          Storage.Btree.lookup (Storage.Pager.read pager) tree
            [| R.Int (!counter mod 20_000) |]
            ~f:(fun _ -> ())))

let test_btree_insert =
  Test.make ~name:"btree.insert+delete (20k entries)"
    (Staged.stage
       (let counter = ref 0 in
        fun () ->
          let pager, tree = Lazy.force btree_fixture in
          incr counter;
          let key = [| R.Int (20_000 + (!counter mod 1000)) |] in
          Storage.Txn.with_txn pager (fun txn ->
              Storage.Btree.insert txn tree key 999_999;
              ignore (Storage.Btree.delete txn tree key 999_999))))

(* A small Retro history for SPT construction and snapshot reads. *)
let retro_fixture =
  lazy
    (let pager = Storage.Pager.create () in
     let retro = Retro.attach pager in
     let heap = Storage.Txn.with_txn pager (fun txn -> Storage.Heap.create txn) in
     for _ = 1 to 50 do
       Storage.Txn.with_txn pager (fun txn ->
           for _ = 1 to 50 do
             ignore (Storage.Heap.insert txn heap (String.make 200 'x'))
           done);
       ignore (Retro.declare retro)
     done;
     (retro, heap))

let test_spt_build =
  Test.make ~name:"retro.build_spt (50-snapshot history)"
    (Staged.stage (fun () ->
         let retro, _ = Lazy.force retro_fixture in
         ignore (Retro.build_spt retro 10)))

let test_snapshot_read =
  Test.make ~name:"retro snapshot heap scan"
    (Staged.stage
       (let spt = lazy (Retro.build_spt (fst (Lazy.force retro_fixture)) 10) in
        fun () ->
          let retro, heap = Lazy.force retro_fixture in
          let n = ref 0 in
          Storage.Heap.iter_spans (Retro.read_ctx retro (Lazy.force spt)) heap
            ~f:(fun _ _ _ _ -> incr n)))

(* Every archive miss and page commit checksums one page. *)
let test_crc32 =
  let page = Bytes.init Storage.Page.size (fun i -> Char.chr (i * 7 land 0xff)) in
  Test.make ~name:"crc32 (4 KiB page)" (Staged.stage (fun () -> ignore (Storage.Crc32.bytes page)))

let test_parse =
  Test.make ~name:"sql.parse (Qq_agg)"
    (Staged.stage (fun () -> ignore (Sqldb.Parser.parse_one Queries.qq_agg)))

let tests =
  [ test_encode; test_decode; test_decode_cols; test_page_insert; test_btree_lookup; test_btree_insert;
    test_spt_build; test_snapshot_read; test_crc32; test_parse ]

let run () =
  Util.section "Micro-benchmarks (bechamel): primitive operation costs";
  (* force the fixtures outside the measured region *)
  ignore (Lazy.force btree_fixture);
  ignore (Lazy.force retro_fixture);
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  Printf.printf "%-44s %14s\n" "operation" "ns/run";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "%-44s %14.1f\n%!" name est
          | _ -> Printf.printf "%-44s %14s\n%!" name "n/a")
        analyzed)
    tests
