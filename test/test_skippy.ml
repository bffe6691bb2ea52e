(* Skippy skip-index tests: the skip-structured scan must produce
   exactly the same SPTs as the linear suffix scan, while visiting no
   more (and for old snapshots far fewer) entries. *)

module T = Storage.Txn
module P = Storage.Pager
module H = Storage.Heap
module S = Storage.Stats
module Spt = Retro.Spt

let build_history ~snapshots ~rows_per_snap =
  let pager = P.create () in
  let retro = Retro.attach pager in
  let heap = T.with_txn pager (fun txn -> H.create txn) in
  let expected = ref [] in
  let live = ref [] in
  let counter = ref 0 in
  for _ = 1 to snapshots do
    T.with_txn pager (fun txn ->
        for _ = 1 to rows_per_snap do
          incr counter;
          let data = Printf.sprintf "row-%06d-%s" !counter (String.make 150 'x') in
          let rid = H.insert txn heap data in
          live := (rid, data) :: !live
        done;
        (* delete the oldest third to force page churn *)
        let n_del = List.length !live / 3 in
        let rec split i acc = function
          | l when i = 0 -> (List.rev acc, l)
          | x :: tl -> split (i - 1) (x :: acc) tl
          | [] -> (List.rev acc, [])
        in
        let keep, doomed = split (List.length !live - n_del) [] !live in
        List.iter (fun (rid, _) -> ignore (H.delete txn heap rid)) doomed;
        live := keep);
    let sid = Retro.declare retro in
    expected := (sid, List.sort compare (List.map snd !live)) :: !expected
  done;
  (pager, retro, heap, List.rev !expected)

let contents retro heap sid =
  let spt = Retro.build_spt retro sid in
  let out = ref [] in
  H.iter (Retro.read_ctx retro spt) heap ~f:(fun _ d -> out := d :: !out);
  List.sort compare !out

let spt_pairs retro sid =
  let spt = Retro.build_spt retro sid in
  let pairs = ref [] in
  Spt.iter spt ~f:(fun pid off -> pairs := (pid, off) :: !pairs);
  List.rev !pairs

let tests =
  [ Alcotest.test_case "skippy SPTs equal linear SPTs" `Quick (fun () ->
        let _pager, retro, _heap, expected = build_history ~snapshots:40 ~rows_per_snap:120 in
        List.iter
          (fun (sid, _) ->
            Retro.set_skippy retro true;
            let a = spt_pairs retro sid in
            Retro.set_skippy retro false;
            let b = spt_pairs retro sid in
            Alcotest.(check (list (pair int int))) (Printf.sprintf "spt %d" sid) b a)
          expected);
    Alcotest.test_case "skippy reads reproduce history" `Quick (fun () ->
        let _pager, retro, heap, expected = build_history ~snapshots:30 ~rows_per_snap:100 in
        Retro.set_skippy retro true;
        List.iter
          (fun (sid, want) ->
            Alcotest.(check (list string)) (Printf.sprintf "snap %d" sid) want
              (contents retro heap sid))
          expected);
    Alcotest.test_case "skippy visits far fewer entries for old snapshots" `Quick (fun () ->
        let _pager, retro, _heap, _ = build_history ~snapshots:60 ~rows_per_snap:200 in
        let visited skippy =
          Retro.set_skippy retro skippy;
          let m0 = Obs.Scope.get S.c_maplog_scanned in
          ignore (Retro.build_spt retro 1);
          Obs.Scope.get S.c_maplog_scanned - m0
        in
        let linear = visited false in
        let skip = visited true in
        Alcotest.(check bool)
          (Printf.sprintf "skip %d < linear %d / 2" skip linear)
          true
          (skip * 2 < linear));
    Alcotest.test_case "digests are stable as the log grows" `Quick (fun () ->
        let pager, retro, heap, _ = build_history ~snapshots:20 ~rows_per_snap:200 in
        Retro.set_skippy retro true;
        let before = spt_pairs retro 3 in
        (* grow the history; snapshot 3's SPT gains mappings for pages
           archived later, but stays consistent with linear scans *)
        T.with_txn pager (fun txn ->
            for _ = 1 to 300 do
              ignore (H.insert txn heap (String.make 150 'y'))
            done);
        ignore (Retro.declare retro);
        ignore before;
        Retro.set_skippy retro true;
        let a = spt_pairs retro 3 in
        Retro.set_skippy retro false;
        let b = spt_pairs retro 3 in
        Alcotest.(check (list (pair int int))) "still equal" b a) ]

let () = Alcotest.run "skippy" [ ("skippy", tests) ]
