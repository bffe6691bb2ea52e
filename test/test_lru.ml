(* LRU cache tests: eviction order, update-moves-to-front, capacity
   changes, and a model-based property. *)

module L = Storage.Lru

let basic =
  [ Alcotest.test_case "add and find" `Quick (fun () ->
        let c = L.create 4 in
        L.add c 1 "a";
        Alcotest.(check (option string)) "hit" (Some "a") (L.find c 1);
        Alcotest.(check (option string)) "miss" None (L.find c 2));
    Alcotest.test_case "evicts least recently used" `Quick (fun () ->
        let c = L.create 2 in
        L.add c 1 "a";
        L.add c 2 "b";
        L.add c 3 "c";
        Alcotest.(check (option string)) "1 evicted" None (L.find c 1);
        Alcotest.(check (option string)) "2 kept" (Some "b") (L.find c 2);
        Alcotest.(check (option string)) "3 kept" (Some "c") (L.find c 3));
    Alcotest.test_case "find refreshes recency" `Quick (fun () ->
        let c = L.create 2 in
        L.add c 1 "a";
        L.add c 2 "b";
        ignore (L.find c 1);
        L.add c 3 "c";
        Alcotest.(check (option string)) "1 kept" (Some "a") (L.find c 1);
        Alcotest.(check (option string)) "2 evicted" None (L.find c 2));
    Alcotest.test_case "add existing key updates value" `Quick (fun () ->
        let c = L.create 2 in
        L.add c 1 "a";
        L.add c 1 "a2";
        Alcotest.(check (option string)) "updated" (Some "a2") (L.find c 1);
        Alcotest.(check int) "no duplicate" 1 (L.length c));
    Alcotest.test_case "clear empties" `Quick (fun () ->
        let c = L.create 4 in
        L.add c 1 "a";
        L.add c 2 "b";
        L.clear c;
        Alcotest.(check int) "empty" 0 (L.length c);
        Alcotest.(check (option string)) "gone" None (L.find c 1));
    Alcotest.test_case "set_capacity shrinks" `Quick (fun () ->
        let c = L.create 8 in
        for i = 1 to 8 do L.add c i (string_of_int i) done;
        L.set_capacity c 3;
        Alcotest.(check int) "len" 3 (L.length c);
        Alcotest.(check (option string)) "most recent kept" (Some "8") (L.find c 8));
    Alcotest.test_case "stats count hits and misses" `Quick (fun () ->
        let c = L.create 2 in
        L.add c 1 "a";
        ignore (L.find c 1);
        ignore (L.find c 2);
        let s = L.stat_record c in
        Alcotest.(check (pair int int)) "stats" (1, 1) (s.L.s_hits, s.L.s_misses));
    Alcotest.test_case "stat_record counts evictions and occupancy" `Quick (fun () ->
        let c = L.create 2 in
        L.add c 1 "a";
        L.add c 2 "b";
        L.add c 3 "c";
        L.add c 4 "d";
        ignore (L.find c 4);
        ignore (L.find c 99);
        let s = L.stat_record c in
        Alcotest.(check int) "capacity" 2 s.L.s_capacity;
        Alcotest.(check int) "occupancy" 2 s.L.s_occupancy;
        Alcotest.(check int) "evictions" 2 s.L.s_evictions;
        Alcotest.(check int) "hits" 1 s.L.s_hits;
        Alcotest.(check int) "misses" 1 s.L.s_misses;
        (* shrinking the capacity also evicts *)
        L.set_capacity c 1;
        Alcotest.(check int) "shrink evicts" 3 (L.stat_record c).L.s_evictions;
        L.reset_stats c;
        let s = L.stat_record c in
        Alcotest.(check (list int)) "reset clears counters" [ 0; 0; 0 ]
          [ s.L.s_hits; s.L.s_misses; s.L.s_evictions ]) ]

(* Model check: contents always equal the most recent [capacity] distinct
   touched keys. *)
let prop_model =
  QCheck.Test.make ~name:"lru matches recency model" ~count:300
    QCheck.(pair (int_range 1 8) (list (pair (int_bound 15) small_string)))
    (fun (cap, ops) ->
      let c = L.create cap in
      let recency = ref [] in
      let touch k = recency := k :: List.filter (fun x -> x <> k) !recency in
      List.iter
        (fun (k, v) ->
          L.add c k v;
          touch k)
        ops;
      let expected = List.filteri (fun i _ -> i < cap) !recency in
      List.length expected = L.length c && List.for_all (fun k -> L.mem c k) expected)

let () =
  Alcotest.run "lru"
    [ ("basic", basic); ("properties", [ QCheck_alcotest.to_alcotest prop_model ]) ]
