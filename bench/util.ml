(* Shared reporting helpers for the figure reproductions. *)

module IS = Rql.Iter_stats

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n%!"

let subsection title = Printf.printf "\n--- %s ---\n%!" title

(* Run an AggregateDataInVariable twice — normally and all-cold — and
   return (run, all_cold_run, ratio C).  Ratio C is the paper's §5.1
   metric: latency of the RQL query over the latency of an all-cold run
   on the same snapshot set. *)
let ratio_c_agg_var ctx ~qs ~qq ~fn =
  let run = Rql.aggregate_data_in_variable ctx ~qs ~qq ~table:"bench_shared" ~fn in
  let cold = Rql.aggregate_data_in_variable ~all_cold:true ctx ~qs ~qq ~table:"bench_cold" ~fn in
  let c = IS.total_s run /. IS.total_s cold in
  (run, cold, c)

(* Mean component breakdown over a list of iterations. *)
let mean_breakdown iters =
  let n = max 1 (List.length iters) in
  let b = IS.breakdown_of iters in
  let s x = x /. float_of_int n in
  { IS.b_io = s b.IS.b_io;
    b_spt = s b.IS.b_spt;
    b_index = s b.IS.b_index;
    b_query = s b.IS.b_query;
    b_udf = s b.IS.b_udf }

let print_breakdown_header () =
  Printf.printf "%-34s %9s %9s %9s %9s %9s %9s\n" "iteration" "io(s)" "spt(s)" "index(s)"
    "query(s)" "udf(s)" "total(s)"

let print_breakdown label (b : IS.breakdown) =
  Printf.printf "%-34s %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f\n" label b.IS.b_io b.IS.b_spt
    b.IS.b_index b.IS.b_query b.IS.b_udf (IS.breakdown_total b)

(* cold = first iteration; hot = mean of the rest. *)
let cold_hot (run : IS.run) =
  match run.IS.iterations with
  | [] -> invalid_arg "cold_hot: empty run"
  | first :: rest ->
    (IS.breakdown_of [ first ], mean_breakdown (if rest = [] then [ first ] else rest))

let hot_iterations (run : IS.run) =
  match run.IS.iterations with [] -> [] | _ :: rest -> rest

let mb bytes = float_of_int bytes /. 1e6

let expectation text = Printf.printf "expected shape: %s\n" text

(* --- machine-readable run recording (bench --json PATH) ---------------- *)

let recorded : (string * string * IS.run) list ref = ref []

(* Tag a run for the JSON report and pass it through, so call sites can
   wrap an existing binding without restructuring. *)
let record ~experiment ~label (run : IS.run) =
  recorded := (experiment, label, run) :: !recorded;
  run

let write_json path =
  let runs =
    List.rev_map
      (fun (experiment, label, run) -> IS.json_of_run ~experiment ~label run)
      !recorded
  in
  (* Always close the trajectory with a final sample, so even a run with
     automatic sampling off carries at least one time-series point. *)
  ignore (Obs.Timeseries.sample_now ());
  let doc =
    Obs.Json.Obj
      [ ("runs", Obs.Json.List runs);
        ("metrics", Obs.Metrics.to_json ());
        ("timeseries", Obs.Timeseries.to_json ()) ]
  in
  match Obs.Json.write_file path doc with
  | () -> Printf.printf "\nwrote %d recorded runs to %s\n" (List.length runs) path
  | exception Sys_error msg ->
    (* don't lose a whole bench run to a bad output path *)
    Printf.eprintf "could not write --json output: %s\n" msg
