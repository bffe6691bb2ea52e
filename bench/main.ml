(* Benchmark harness entry point: regenerates every table and figure of
   the paper's evaluation (§5).

     dune exec bench/main.exe                 all experiments, quick scale
     dune exec bench/main.exe -- --full       larger scale
     dune exec bench/main.exe -- --only fig6,fig8
     dune exec bench/main.exe -- --skip-micro
     dune exec bench/main.exe -- --only gates   regression gates, exit 1 on failure

   Absolute numbers differ from the paper (different hardware, a
   simulated SSD, a scaled-down TPC-H); the shapes the paper reports are
   the reproduction target.  EXPERIMENTS.md records paper-vs-measured
   for every experiment. *)

(* Run in this order.  [gates] runs only when named, and first, so a
   failing gate fails fast and the experiments after it show that it
   leaves no global state (cost model, scopes) behind. *)
let experiments : (string * string * (unit -> unit)) list =
  [ ("gates", "regression gates (only when named)", Gates.run);
    ("fig6", "ratio C vs interval length (old snapshots)", Fig6.run);
    ("fig7", "ratio C vs interval start (recent snapshots)", Fig7.run);
    ("fig8", "single-iteration breakdown, Qq_io", Fig8.run);
    ("fig9", "CPU-intensive Qq_cpu, index effects", Fig9.run);
    ("fig10", "CollateData vs Qq output size", Fig10.run);
    ("fig11", "AggTable vs Collate+SQL, memory", Fig11.run);
    ("fig12", "per-iteration Collate vs AggTable", Fig12.run);
    ("fig13", "AggTable MAX vs SUM", Fig13.run);
    ("sec5.3", "interval result sizes across workloads", Intervals_table.run);
    ("ablation", "Skippy skip index; snapshot cache size (extensions)", Ablation.run);
    ("micro", "bechamel micro-benchmarks of primitive operations", Micro.run) ]

let ids = List.map (fun (id, _, _) -> id) experiments

let print_table1 () =
  Util.section "Table 1 — Parameters and notations";
  List.iter (fun (name, text) -> Printf.printf "%-22s %s\n" name text) Queries.table_1

open Cmdliner

let full =
  let doc = "Run at a larger scale (slower, closer to the paper's setup)." in
  Arg.(value & flag & info [ "full" ] ~doc)

let only =
  let doc =
    "Comma-separated experiment ids to run: " ^ String.concat ", " ids
    ^ ". Default: all but gates. An unknown id exits 2."
  in
  Arg.(value & opt (some string) None & info [ "only" ] ~docv:"IDS" ~doc)

let skip_micro =
  let doc = "Skip the bechamel micro-benchmark suite." in
  Arg.(value & flag & info [ "skip-micro" ] ~doc)

let json_path =
  let doc = "Write recorded runs and the metrics registry as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)

let prom_path =
  let doc = "Write the final metrics registry in Prometheus text exposition format to $(docv)." in
  Arg.(value & opt (some string) None & info [ "prom" ] ~docv:"PATH" ~doc)

let sample_every =
  let doc = "Sample the metrics registry into the time-series ring every $(docv) SQL statements (0 = only the final sample)." in
  Arg.(value & opt int 1000 & info [ "sample-every" ] ~docv:"N" ~doc)

(* Counters that must not rise during any run: the harness exits 1 if
   they do. *)
let guarded = [ "retro.checksum_failures"; "sql.analyzer_errors" ]

let counter name = Obs.Metrics.Counter.get (Obs.Metrics.counter name)

let main full only skip_micro json_path prom_path sample_every =
  let selected =
    Option.map (fun s -> String.split_on_char ',' (String.lowercase_ascii s)) only
  in
  (match List.filter (fun id -> not (List.mem id ids)) (Option.value selected ~default:[]) with
  | [] -> ()
  | unknown ->
    Printf.eprintf "unknown experiment id: %s (valid: %s)\n" (String.concat ", " unknown)
      (String.concat ", " ids);
    exit 2);
  if full then Params.current := Params.full;
  Obs.Timeseries.set_interval sample_every;
  let wanted id =
    (id <> "micro" || not skip_micro)
    && match selected with None -> id <> "gates" | Some ids -> List.mem id ids
  in
  let before = List.map (fun name -> (name, counter name)) guarded in
  let t0 = Unix.gettimeofday () in
  Printf.printf
    "RQL benchmark harness — reproducing the EDBT'18 evaluation (TPC-H SF %g, %s scale)\n"
    (Params.p ()).Params.sf
    (if full then "full" else "quick");
  if selected = None then print_table1 ();
  List.iter (fun (id, _, run) -> if wanted id then run ()) experiments;
  (match json_path with Some path -> Util.write_json path | None -> ());
  (match prom_path with
  | Some path ->
    Obs.Scope.write_prometheus ~path;
    Printf.printf "wrote Prometheus exposition to %s\n" path
  | None -> ());
  Printf.printf "\nall experiments done in %.1fs\n" (Unix.gettimeofday () -. t0);
  let rose = List.filter (fun (name, n0) -> counter name > n0) before in
  List.iter
    (fun (name, n0) -> Printf.eprintf "FAIL: %s rose by %d during the run\n" name (counter name - n0))
    rose;
  if rose <> [] then exit 1

let cmd =
  let doc = "reproduce the RQL paper's performance evaluation" in
  Cmd.v
    (Cmd.info "rql-bench" ~doc)
    Term.(const main $ full $ only $ skip_micro $ json_path $ prom_path $ sample_every)

let () = exit (Cmd.eval cmd)
