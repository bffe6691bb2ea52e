(* Machine-speed calibration.

   On a shared 2-CPU container the speed of the whole machine drifts by
   up to a half over minutes (a fixed CPU loop's 10-second medians
   ranged from 64 to 98 ms), far more than the differences a change
   should be judged on.  Each run therefore times a fixed kernel — plain
   OCaml that calls none of the code under test — at checkpoints in the
   phase a metric comes from, and reports that metric's wall times
   scaled to a reference speed:

     value × reference_kernel_ms / median checkpoint kernel time.

   The raw values are kept in the full report. *)

(* About the kernel's time on a 2-CPU Xeon container in a quiet period,
   so that scaled values read close to measured ones there. *)
let reference_kernel_ms = 2.4

let size = 1 lsl 13
let data = Array.init size (fun i -> i * 7919 mod 65_521)
let work = Array.make size 0

(* A fixed amount of sorting and dependent memory reads that allocates
   nothing, so its time follows the machine and not the state of the
   benchmark's own heap. *)
let kernel () =
  Array.blit data 0 work 0 size;
  Array.sort (fun (a : int) b -> compare a b) work;
  let j = ref 0 in
  for i = 1 to 50_000 do
    j := work.((!j + (i * 40_503)) land (size - 1)) land (size - 1)
  done;
  !j

(* Checkpoint medians of one phase, in seconds. *)
type phase = float list ref

let phase () : phase = ref []

(* Time the kernel [reps] times and keep the median; returns the
   seconds the checkpoint took, for callers that leave it out of a
   measured interval. *)
let checkpoint ?(reps = 15) (p : phase) =
  let t0 = Util.now () in
  let once () =
    let t = Util.now () in
    ignore (Sys.opaque_identity (kernel ()));
    Util.now () -. t
  in
  p := Util.median (List.init reps (fun _ -> once ())) :: !p;
  Util.now () -. t0

let kernel_ms (p : phase) = 1e3 *. Util.median !p

(* A wall time, and a rate, at the reference speed. *)
let time p x = x *. reference_kernel_ms /. kernel_ms p
let rate p x = x *. kernel_ms p /. reference_kernel_ms
