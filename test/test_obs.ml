(* Observability layer tests: histogram quantiles, span nesting and
   ordering, ring-buffer wraparound, counter delta attribution, Chrome
   trace JSON well-formedness, raise-safe timing, and the span hierarchy
   an RQL CollateData run produces. *)

module M = Obs.Metrics
module T = Obs.Trace
module J = Obs.Json

let with_tracing f =
  T.clear ();
  T.set_enabled true;
  Fun.protect ~finally:(fun () -> T.set_enabled false) f

let span_names sps = List.map (fun sp -> sp.T.name) sps

let find_span name sps = List.find (fun sp -> sp.T.name = name) sps

let children_of id sps = List.filter (fun sp -> sp.T.parent = id) sps

let histogram =
  [ Alcotest.test_case "quantiles on a uniform grid" `Quick (fun () ->
        let h = M.histogram "test.h_uniform" in
        M.Histogram.reset h;
        (* 1 ms .. 100 ms in 1 ms steps *)
        for i = 1 to 100 do
          M.Histogram.observe h (float_of_int i /. 1000.)
        done;
        Alcotest.(check int) "count" 100 (M.Histogram.count h);
        Alcotest.(check (float 1e-9)) "min" 0.001 (M.Histogram.min_value h);
        Alcotest.(check (float 1e-9)) "max" 0.1 (M.Histogram.max_value h);
        Alcotest.(check (float 1e-4)) "mean" 0.0505 (M.Histogram.mean h);
        let p50 = M.Histogram.quantile h 0.5 in
        let p95 = M.Histogram.quantile h 0.95 in
        let p99 = M.Histogram.quantile h 0.99 in
        (* log-bucket estimates: ~12% relative error plus bucket width *)
        Alcotest.(check bool) "p50 in range" true (p50 > 0.035 && p50 < 0.075);
        Alcotest.(check bool) "p95 in range" true (p95 > 0.07 && p95 <= 0.1);
        Alcotest.(check bool) "p99 in range" true (p99 > 0.07 && p99 <= 0.1);
        Alcotest.(check bool) "monotonic" true (p50 <= p95 && p95 <= p99);
        Alcotest.(check bool) "clamped to observed range" true
          (M.Histogram.quantile h 0. >= 0.001 && M.Histogram.quantile h 1. <= 0.1));
    Alcotest.test_case "single observation is exact at every quantile" `Quick (fun () ->
        let h = M.histogram "test.h_single" in
        M.Histogram.reset h;
        M.Histogram.observe h 0.5;
        List.iter
          (fun q ->
            Alcotest.(check (float 1e-9))
              (Printf.sprintf "q=%g" q)
              0.5 (M.Histogram.quantile h q))
          [ 0.; 0.5; 0.95; 0.99; 1. ]);
    Alcotest.test_case "underflow and overflow are kept" `Quick (fun () ->
        let h = M.histogram "test.h_edges" in
        M.Histogram.reset h;
        M.Histogram.observe h 1e-9;
        (* below the log range *)
        M.Histogram.observe h 5e4;
        (* above the log range *)
        Alcotest.(check int) "count" 2 (M.Histogram.count h);
        Alcotest.(check (float 1e-12)) "min" 1e-9 (M.Histogram.min_value h);
        Alcotest.(check (float 1e-6)) "max" 5e4 (M.Histogram.max_value h);
        Alcotest.(check bool) "q in range" true
          (M.Histogram.quantile h 0.5 >= 1e-9 && M.Histogram.quantile h 0.5 <= 5e4));
    Alcotest.test_case "empty histogram reports zeros" `Quick (fun () ->
        let h = M.histogram "test.h_empty" in
        M.Histogram.reset h;
        Alcotest.(check int) "count" 0 (M.Histogram.count h);
        Alcotest.(check (float 0.)) "mean" 0. (M.Histogram.mean h);
        Alcotest.(check (float 0.)) "p99" 0. (M.Histogram.quantile h 0.99));
    Alcotest.test_case "value exactly on the first bound is not underflow" `Quick (fun () ->
        (* log10 rounding can place 1e-7 a hair below the first bucket
           bound; it must land in the first real bucket, so cumulative
           bucket counts include it at the 1e-6 bound. *)
        let h = M.histogram "test.h_bound" in
        M.Histogram.reset h;
        M.Histogram.observe h 1e-7;
        (match M.Histogram.cumulative_buckets h with
        | (b1, c1) :: _ ->
          Alcotest.(check (float 1e-18)) "first bound" 1e-6 b1;
          Alcotest.(check int) "counted at first bound" 1 c1
        | [] -> Alcotest.fail "no buckets");
        Alcotest.(check (float 1e-12)) "quantile clamps to the observation" 1e-7
          (M.Histogram.quantile h 0.5));
    Alcotest.test_case "single underflow observation is exact at every quantile" `Quick
      (fun () ->
        let h = M.histogram "test.h_under" in
        M.Histogram.reset h;
        M.Histogram.observe h 1e-9;
        List.iter
          (fun q ->
            Alcotest.(check (float 1e-15))
              (Printf.sprintf "q=%g" q)
              1e-9 (M.Histogram.quantile h q))
          [ 0.; 0.5; 0.99; 1. ]) ]

(* Parse the Prometheus text exposition back line by line and check the
   format contract: every line is a comment or "name[{labels}] value",
   every histogram carries _bucket/_sum/_count, and cumulative bucket
   counts are monotone with le="+Inf" equal to _count. *)
let prometheus =
  [ Alcotest.test_case "exposition format shape" `Quick (fun () ->
        let h = M.histogram "test.prom_h" in
        M.Histogram.reset h;
        List.iter (M.Histogram.observe h) [ 1e-8; 0.002; 0.004; 0.5; 5e4 ];
        let text = Obs.Scope.to_prometheus () in
        let lines = String.split_on_char '\n' text |> List.filter (( <> ) "") in
        Alcotest.(check bool) "non-empty" true (lines <> []);
        let sample_re line =
          (* name{labels} value | name value *)
          match String.index_opt line ' ' with
          | None -> false
          | Some _ -> (
            let parts = String.split_on_char ' ' line in
            match List.rev parts with
            | v :: _ -> Float.is_finite (float_of_string v) || v = "0"
            | [] -> false)
        in
        List.iter
          (fun line ->
            if String.length line > 0 && line.[0] <> '#' then
              Alcotest.(check bool) ("parseable: " ^ line) true (sample_re line))
          lines;
        (* every histogram in the registry exposes the triple *)
        List.iter
          (fun (name, m) ->
            match m with
            | M.M_histogram _ ->
              let mangled =
                "rql_"
                ^ String.map (fun c -> if c = '.' || c = '-' then '_' else c) name
              in
              List.iter
                (fun suffix ->
                  Alcotest.(check bool) (mangled ^ suffix) true
                    (List.exists
                       (fun l ->
                         String.length l > String.length (mangled ^ suffix)
                         && String.sub l 0 (String.length (mangled ^ suffix))
                            = mangled ^ suffix)
                       lines))
                [ "_bucket{le=\""; "_sum "; "_count " ]
            | _ -> ())
          (M.sorted_items ());
        (* the test histogram's buckets are cumulative and end at count *)
        let bucket_counts =
          List.filter_map
            (fun l ->
              let prefix = "rql_test_prom_h_bucket{le=\"" in
              if String.length l > String.length prefix
                 && String.sub l 0 (String.length prefix) = prefix
              then
                match String.rindex_opt l ' ' with
                | Some i ->
                  Some (int_of_string (String.sub l (i + 1) (String.length l - i - 1)))
                | None -> None
              else None)
            lines
        in
        Alcotest.(check int) "10 decade bounds + +Inf" 11 (List.length bucket_counts);
        let rec monotone = function
          | a :: b :: rest -> a <= b && monotone (b :: rest)
          | _ -> true
        in
        Alcotest.(check bool) "cumulative monotone" true (monotone bucket_counts);
        Alcotest.(check int) "+Inf bucket = count" (M.Histogram.count h)
          (List.nth bucket_counts (List.length bucket_counts - 1));
        (* the underflow observation is included from the first bound up *)
        Alcotest.(check bool) "underflow folded into first bound" true
          (List.hd bucket_counts >= 1)) ]

let spans =
  [ Alcotest.test_case "nesting links children to parents" `Quick (fun () ->
        with_tracing (fun () ->
            T.with_span ~name:"a" (fun () ->
                T.with_span ~name:"b" (fun () -> ());
                T.with_span ~name:"c" (fun () -> ()));
            let sps = T.spans () in
            Alcotest.(check (list string)) "start order" [ "a"; "b"; "c" ] (span_names sps);
            let a = find_span "a" sps in
            let b = find_span "b" sps in
            let c = find_span "c" sps in
            Alcotest.(check int) "a is a root" (-1) a.T.parent;
            Alcotest.(check int) "b under a" a.T.id b.T.parent;
            Alcotest.(check int) "c under a" a.T.id c.T.parent;
            Alcotest.(check bool) "a spans its children" true
              (a.T.ts_us <= b.T.ts_us
              && b.T.ts_us +. b.T.dur_us <= a.T.ts_us +. a.T.dur_us +. 1.)));
    Alcotest.test_case "render_tree indents children" `Quick (fun () ->
        with_tracing (fun () ->
            T.with_span ~name:"outer" (fun () -> T.with_span ~name:"inner" (fun () -> ()));
            match T.render_tree (T.spans ()) with
            | [ l1; l2 ] ->
              Alcotest.(check bool) "outer at depth 0" true
                (String.length l1 > 5 && String.sub l1 0 5 = "outer");
              Alcotest.(check bool) "inner indented" true
                (String.length l2 > 7 && String.sub l2 0 7 = "  inner")
            | lines -> Alcotest.failf "expected 2 lines, got %d" (List.length lines)));
    Alcotest.test_case "disabled tracing records nothing" `Quick (fun () ->
        T.clear ();
        T.set_enabled false;
        T.with_span ~name:"ghost" (fun () -> ());
        Alcotest.(check int) "emit returns -1"
          (-1)
          (T.emit ~name:"ghost2" ~ts_us:0. ~dur_us:1. ());
        Alcotest.(check int) "no spans" 0 (List.length (T.spans ())));
    Alcotest.test_case "a raising body still records its span" `Quick (fun () ->
        with_tracing (fun () ->
            (try T.with_span ~name:"boom" (fun () -> failwith "kapow") with Failure _ -> ());
            let sp = find_span "boom" (T.spans ()) in
            Alcotest.(check bool) "error attr attached" true
              (List.mem_assoc "error" sp.T.attrs)));
    Alcotest.test_case "ring buffer wraps around" `Quick (fun () ->
        (* the span log keeps its constant capacity; a mark taken now
           sees only spans completed after it *)
        with_tracing (fun () ->
            let n = T.span_capacity + 20 in
            for i = 1 to n do
              ignore (T.emit ~name:(Printf.sprintf "s%d" i) ~ts_us:(float_of_int i) ~dur_us:0. ())
            done;
            let sps = T.spans () in
            Alcotest.(check int) "only the capacity is kept" T.span_capacity (List.length sps);
            Alcotest.(check string) "the oldest kept" "s21" (List.hd sps).T.name;
            Alcotest.(check string) "the newest kept" (Printf.sprintf "s%d" n)
              (List.nth sps (T.span_capacity - 1)).T.name;
            let m = T.mark () in
            T.with_span ~name:"tail" (fun () -> ());
            Alcotest.(check (list string)) "spans_since mark" [ "tail" ]
              (span_names (T.spans_since m))));
    Alcotest.test_case "two domains nest spans without losing or misparenting any" `Quick
      (fun () ->
        (* parallel RQL stripes record spans on worker domains: each
           domain keeps its own open-span stack, ids stay unique *)
        let per_domain = 10_000 in
        with_tracing (fun () ->
            let record d () =
              for i = 1 to per_domain do
                T.with_span ~name:(Printf.sprintf "o%d.%d" d i) (fun () ->
                    T.with_span ~name:(Printf.sprintf "i%d.%d" d i) (fun () -> ()))
              done
            in
            List.iter Domain.join [ Domain.spawn (record 1); Domain.spawn (record 2) ];
            let sps = T.spans () in
            Alcotest.(check int) "every span kept" (4 * per_domain) (List.length sps);
            let by_id = Hashtbl.create (4 * per_domain) in
            List.iter (fun sp -> Hashtbl.replace by_id sp.T.id sp) sps;
            Alcotest.(check int) "no duplicate ids" (List.length sps) (Hashtbl.length by_id);
            let wrong =
              List.filter
                (fun sp ->
                  sp.T.name.[0] = 'i'
                  &&
                  match Hashtbl.find_opt by_id sp.T.parent with
                  | Some p -> p.T.name <> "o" ^ String.sub sp.T.name 1 (String.length sp.T.name - 1)
                  | None -> true)
                sps
            in
            Alcotest.(check int) "no wrong parents" 0 (List.length wrong))) ]

let ring =
  [ Alcotest.test_case "keeps the newest entries; numbering survives clear" `Quick (fun () ->
        let r = Obs.Ring.create 8 in
        for _ = 1 to 20 do
          ignore (Obs.Ring.push r (fun n -> n))
        done;
        Alcotest.(check (list int)) "the 8 newest" [ 13; 14; 15; 16; 17; 18; 19; 20 ]
          (Obs.Ring.to_list r);
        Alcotest.(check (list int)) "since a kept number" [ 18; 19; 20 ] (Obs.Ring.since r 18);
        Alcotest.(check (list int)) "since an overwritten number" (Obs.Ring.to_list r)
          (Obs.Ring.since r 3);
        let m = Obs.Ring.mark r in
        Alcotest.(check int) "mark is the next number" 21 m;
        Alcotest.(check (list int)) "nothing since the mark" [] (Obs.Ring.since r m);
        Obs.Ring.clear r;
        Alcotest.(check (list int)) "clear empties" [] (Obs.Ring.to_list r);
        Alcotest.(check int) "push after clear continues" 21 (Obs.Ring.push r (fun n -> n));
        Alcotest.(check (list int)) "the mark sees it" [ 21 ] (Obs.Ring.since r m)) ]

let counters =
  [ Alcotest.test_case "delta attribution via counters diff" `Quick (fun () ->
        let x = M.counter "test.x" in
        let y = M.counter "test.y" in
        let z = M.counter "test.z" in
        M.Counter.set x 0;
        M.Counter.set y 0;
        M.Counter.set z 7;
        let before = M.counters () in
        M.Counter.incr x;
        M.Counter.incr x;
        M.Counter.incr x;
        M.Counter.add y 5;
        let d = M.diff_counters ~before ~after:(M.counters ()) in
        Alcotest.(check (option int)) "x delta" (Some 3) (List.assoc_opt "test.x" d);
        Alcotest.(check (option int)) "y delta" (Some 5) (List.assoc_opt "test.y" d);
        Alcotest.(check (option int)) "untouched counter absent" None
          (List.assoc_opt "test.z" d));
    Alcotest.test_case "creation is idempotent, kind mismatch rejected" `Quick (fun () ->
        let a = M.counter "test.idem" in
        M.Counter.set a 41;
        M.Counter.incr (M.counter "test.idem");
        Alcotest.(check int) "same instance" 42 (M.Counter.get a);
        Alcotest.check_raises "kind mismatch"
          (M.Error "metric test.idem exists with another kind") (fun () ->
            ignore (M.histogram "test.idem")));
    Alcotest.test_case "Exec_stats.time_into accounts a raising body" `Quick (fun () ->
        let acc = ref 0. in
        (try
           Sqldb.Exec_stats.time_into
             (fun dt -> acc := !acc +. dt)
             (fun () ->
               ignore (Unix.gettimeofday ());
               failwith "boom")
         with Failure _ -> ());
        Alcotest.(check bool) "elapsed recorded despite raise" true (!acc >= 0.)) ]

(* Walk the serialized trace back through the parser and check the
   Chrome trace_event contract. *)
let chrome_json =
  [ Alcotest.test_case "trace dump is valid Chrome trace JSON" `Quick (fun () ->
        with_tracing (fun () ->
            T.with_span ~name:"stmt" ~attrs:[ ("kind", T.Str "select") ] (fun () ->
                T.with_span ~name:"child" (fun () -> ()));
            ignore
              (T.emit ~tid:T.tid_modeled ~name:"modeled" ~ts_us:0. ~dur_us:123.4
                 ~attrs:[ ("n", T.Int 3) ] ());
            let s = J.to_string (T.to_chrome_json ()) in
            match J.of_string s with
            | Error msg -> Alcotest.failf "parse failed: %s" msg
            | Ok doc ->
              Alcotest.(check (option string)) "displayTimeUnit" (Some "ms")
                (match J.member "displayTimeUnit" doc with
                | Some (J.Str u) -> Some u
                | _ -> None);
              let events =
                match Option.bind (J.member "traceEvents" doc) J.to_list_opt with
                | Some l -> l
                | None -> Alcotest.fail "traceEvents missing"
              in
              (* 2 thread_name metadata + 3 spans *)
              Alcotest.(check int) "event count" 5 (List.length events);
              List.iter
                (fun ev ->
                  let str k =
                    match J.member k ev with Some (J.Str s) -> Some s | _ -> None
                  in
                  let num k = Option.bind (J.member k ev) J.number_opt in
                  Alcotest.(check bool) "has name" true (str "name" <> None);
                  match str "ph" with
                  | Some "M" -> ()
                  | Some "X" ->
                    Alcotest.(check bool) "X has ts/dur/tid/pid" true
                      (num "ts" <> None && num "dur" <> None && num "tid" <> None
                      && num "pid" <> None)
                  | ph -> Alcotest.failf "unexpected ph %s" (Option.value ph ~default:"?"))
                events;
              (* args round-trip: the modeled span carries its attr *)
              let modeled =
                List.find
                  (fun ev -> J.member "name" ev = Some (J.Str "modeled"))
                  events
              in
              Alcotest.(check (option int)) "attr survives" (Some 3)
                (match Option.bind (J.member "args" modeled) (J.member "n") with
                | Some (J.Int n) -> Some n
                | _ -> None)));
    Alcotest.test_case "serializer never emits nan/inf" `Quick (fun () ->
        let s =
          J.to_string
            (J.Obj
               [ ("a", J.Float Float.nan);
                 ("b", J.Float Float.infinity);
                 ("c", J.Float 0.25) ])
        in
        match J.of_string s with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "not parseable: %s (%s)" msg s) ]

(* The acceptance hierarchy: an RQL run under tracing yields
   rql.run -> rql.iteration -> {io, spt_build, index_build, query_eval,
   udf} on the modeled track, plus real wall-clock run/iteration
   spans. *)
let rql_hierarchy =
  [ Alcotest.test_case "CollateData produces the expected span tree" `Quick (fun () ->
        let ctx = Rql.create () in
        let e sql = ignore (Sqldb.Engine.exec ctx.Rql.data sql) in
        e "CREATE TABLE t (a INTEGER)";
        e "INSERT INTO t VALUES (1), (2), (3)";
        ignore (Rql.declare_snapshot ctx);
        e "BEGIN";
        e "INSERT INTO t VALUES (4)";
        ignore (Rql.declare_snapshot ctx);
        e "BEGIN";
        e "DELETE FROM t WHERE a = 1";
        ignore (Rql.declare_snapshot ctx);
        with_tracing (fun () ->
            ignore
              (Rql.collate_data ctx ~qs:"SELECT snap_id FROM SnapIds"
                 ~qq:"SELECT a, current_snapshot() AS sid FROM t" ~table:"R");
            let sps = T.spans () in
            let wall = List.filter (fun sp -> sp.T.tid = T.tid_wall) sps in
            let modeled = List.filter (fun sp -> sp.T.tid = T.tid_modeled) sps in
            (* wall-clock track: one run span over three iteration spans *)
            let wrun = find_span "rql.run" wall in
            let witers =
              List.filter (fun sp -> sp.T.name = "rql.iteration") wall
            in
            Alcotest.(check int) "3 wall iterations" 3 (List.length witers);
            List.iter
              (fun sp ->
                Alcotest.(check int) "iteration under run" wrun.T.id sp.T.parent;
                Alcotest.(check bool) "snap_id attr" true
                  (List.mem_assoc "snap_id" sp.T.attrs))
              witers;
            (* modeled track: run -> 3 iterations -> 5 components each *)
            let mrun = find_span "rql.run" modeled in
            let miters = children_of mrun.T.id modeled in
            Alcotest.(check int) "3 modeled iterations" 3 (List.length miters);
            List.iter
              (fun it ->
                Alcotest.(check string) "modeled iteration name" "rql.iteration" it.T.name;
                Alcotest.(check (list string)) "components"
                  [ "io"; "spt_build"; "index_build"; "query_eval"; "udf" ]
                  (span_names (children_of it.T.id modeled));
                (* components tile the iteration exactly *)
                let child_sum =
                  List.fold_left
                    (fun acc c -> acc +. c.T.dur_us)
                    0.
                    (children_of it.T.id modeled)
                in
                Alcotest.(check bool) "components tile iteration" true
                  (Float.abs (child_sum -. it.T.dur_us) < 1e-3))
              miters;
            (* the exported tree parses as Chrome JSON too *)
            match J.of_string (J.to_string (T.to_chrome_json ())) with
            | Ok _ -> ()
            | Error msg -> Alcotest.failf "chrome export: %s" msg)) ]

let timeseries =
  [ Alcotest.test_case "ring samples on the configured interval" `Quick (fun () ->
        let module TS = Obs.Timeseries in
        TS.clear ();
        TS.set_interval 2;
        Fun.protect
          ~finally:(fun () -> TS.set_interval 0)
          (fun () ->
            let c = M.counter "test.ts_counter" in
            M.Counter.set c 5;
            for _ = 1 to 6 do
              TS.tick ()
            done;
            let samples = TS.samples () in
            Alcotest.(check int) "one sample per 2 ticks" 3 (List.length samples);
            (* sequence numbers are monotone and values carry the registry *)
            let seqs = List.map (fun s -> s.TS.seq) samples in
            let first = List.hd seqs in
            Alcotest.(check (list int)) "consecutive seq" [ first; first + 1; first + 2 ] seqs;
            List.iter
              (fun s ->
                Alcotest.(check (option (float 0.))) "counter value captured" (Some 5.)
                  (List.assoc_opt "test.ts_counter" s.TS.values))
              samples));
    Alcotest.test_case "bounded ring keeps the newest samples" `Quick (fun () ->
        let module TS = Obs.Timeseries in
        TS.clear ();
        let last = ref (TS.sample_now ()) in
        for _ = 1 to TS.capacity + 9 do
          last := TS.sample_now ()
        done;
        let samples = TS.samples () in
        Alcotest.(check int) "capacity bound" TS.capacity (List.length samples);
        Alcotest.(check (list int)) "newest survive"
          (List.init TS.capacity (fun k -> !last.TS.seq - TS.capacity + 1 + k))
          (List.map (fun s -> s.TS.seq) samples)) ]

let () =
  Alcotest.run "obs"
    [ ("histogram", histogram);
      ("prometheus", prometheus);
      ("timeseries", timeseries);
      ("spans", spans);
      ("ring", ring);
      ("counters", counters);
      ("chrome-json", chrome_json);
      ("rql-hierarchy", rql_hierarchy) ]
