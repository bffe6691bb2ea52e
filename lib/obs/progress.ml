(* Live progress and cooperative cancellation for retrospective (RQL)
   runs.

   The RQL layer lives above the SQL engine, but the surfaces that
   report progress — sys_progress, the shell, the event log — live
   below it, so the registry of runs lives here in obs: Rql drives it,
   everything else reads it.

   A run advertises iterations done/total, pages read so far, and an
   ETA extrapolated from per-snapshot archive deltas (the weights
   ANALYZE ARCHIVE computes): iteration cost tracks the number of
   archived pages behind each snapshot, so elapsed time is scaled by
   remaining weight over completed weight rather than a flat per-
   iteration average.

   Cancellation is cooperative: {!request_cancel} raises a flag that
   the RQL loop checks once per iteration; the loop stops between
   iterations (each iteration is transactionally self-contained) and
   marks the run {!Cancelled} with an accurate done-count. *)

type status = Running | Done | Cancelled | Failed

let status_to_string = function
  | Running -> "running"
  | Done -> "done"
  | Cancelled -> "cancelled"
  | Failed -> "failed"

type t = {
  pr_id : int;
  pr_mechanism : string;
  pr_detail : string; (* the Qq text (or result-table name) *)
  pr_scope : int;     (* owning scope id at start *)
  mutable pr_total : int;
  mutable pr_done : int;
  mutable pr_pages : int; (* page reads attributed so far *)
  pr_started : float;
  mutable pr_elapsed : float;
  mutable pr_eta : float; (* estimated seconds remaining (0 = unknown/done) *)
  mutable pr_status : status;
  mutable pr_cancel : bool;
  mutable pr_weights : float array; (* per-iteration cost weights ([||] = uniform) *)
}

(* Bounded retention: finished runs stay visible in sys_progress until
   pushed out by newer ones.  A run's id is its number in the ring.
   Per-run mutable fields are written only by the domain driving that
   run, so they stay unlocked (sys_progress may read an iteration count
   one step stale, never a torn value). *)
let capacity = 64
let ring : t Ring.t = Ring.create capacity

(* The run currently executing an iteration, per domain: event-log
   lines produced during an iteration carry its id.  Parallel RQL
   worker domains evaluating on behalf of a run install it here. *)
let active : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current_run_id () =
  match Domain.DLS.get active with Some p -> p.pr_id | None -> -1

let start ?(total = 0) ~mechanism ~detail () =
  let scope = Scope.current_id () in
  Ring.push ring (fun id ->
      { pr_id = id;
        pr_mechanism = mechanism;
        pr_detail = detail;
        pr_scope = scope;
        pr_total = total;
        pr_done = 0;
        pr_pages = 0;
        pr_started = Unix.gettimeofday ();
        pr_elapsed = 0.;
        pr_eta = 0.;
        pr_status = Running;
        pr_cancel = false;
        pr_weights = [||] })

let set_weights p w = p.pr_weights <- w

let with_active p f =
  let prev = Domain.DLS.get active in
  Domain.DLS.set active (Some p);
  match f () with
  | r ->
    Domain.DLS.set active prev;
    r
  | exception e ->
    Domain.DLS.set active prev;
    raise e

(* Weighted remaining-work extrapolation; falls back to a flat per-
   iteration average when no weights were supplied (or they are
   degenerate). *)
let recompute_eta p =
  let eta =
    if p.pr_done = 0 || p.pr_total <= p.pr_done then 0.
    else
      let n = Array.length p.pr_weights in
      if n >= p.pr_total then begin
        let sum a b =
          let acc = ref 0. in
          for i = a to b - 1 do
            acc := !acc +. p.pr_weights.(i)
          done;
          !acc
        in
        let w_done = sum 0 p.pr_done and w_rem = sum p.pr_done p.pr_total in
        if w_done > 0. then p.pr_elapsed *. w_rem /. w_done
        else p.pr_elapsed *. float_of_int (p.pr_total - p.pr_done) /. float_of_int p.pr_done
      end
      else p.pr_elapsed *. float_of_int (p.pr_total - p.pr_done) /. float_of_int p.pr_done
  in
  p.pr_eta <- eta

let note_iteration p ~pages =
  p.pr_done <- p.pr_done + 1;
  p.pr_pages <- pages;
  p.pr_elapsed <- Unix.gettimeofday () -. p.pr_started;
  recompute_eta p

let finish p status =
  if p.pr_status = Running then begin
    p.pr_status <- status;
    p.pr_elapsed <- Unix.gettimeofday () -. p.pr_started;
    p.pr_eta <- 0.
  end

let cancel_requested p = p.pr_cancel

(* Raise the cancellation flag on run [id], or on every running run
   when no id is given; returns how many runs were flagged. *)
let request_cancel ?id () =
  let n = ref 0 in
  List.iter
    (fun p ->
      let wanted = match id with None -> true | Some i -> p.pr_id = i in
      if wanted && p.pr_status = Running && not p.pr_cancel then begin
        p.pr_cancel <- true;
        incr n
      end)
    (Ring.to_list ring);
  !n

(* Oldest-first, so sys_progress reads chronologically. *)
let runs () = Ring.to_list ring

let find id = List.find_opt (fun p -> p.pr_id = id) (runs ())

let clear () =
  Ring.clear ring;
  Domain.DLS.set active None
