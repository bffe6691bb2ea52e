(* Reference model of the archive-health report: [Retro.analyze] as it
   was before per-snapshot deltas came from Maplog boundaries and SPT
   sizes from a Fenwick tree — a hash table per snapshot for its delta
   and a fold over the accumulated page set at every boundary,
   O(snapshots * distinct pages).  Kept verbatim in structure so the
   linear code can be compared with it field by field, together with
   the three surfaces built on it: the ANALYZE ARCHIVE lines, the
   sys_snapshots rows and the VACUUM SNAPSHOTS ... DRY RUN rows. *)

module R = Storage.Record
module M = Retro.Maplog

let analyze (t : Retro.t) : Retro.analysis =
  let ml = t.Retro.maplog in
  let n = M.length ml in
  let count = M.snapshot_count ml in
  let fl = M.first_live ml in
  let chains : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  for i = 0 to n - 1 do
    let e = M.entry ml i in
    Hashtbl.replace chains e.M.pid (1 + Option.value (Hashtbl.find_opt chains e.M.pid) ~default:0)
  done;
  let distinct = Hashtbl.length chains in
  let chain_max = Hashtbl.fold (fun _ c acc -> max c acc) chains 0 in
  let chain_mean = if distinct = 0 then 0. else float_of_int n /. float_of_int distinct in
  let pages_mapped = Array.make (count + 1) 0 in
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let idx = ref (n - 1) in
  for s = count downto fl do
    let b = M.boundary ml s in
    while !idx >= b.M.pos do
      Hashtbl.replace seen (M.entry ml !idx).M.pid ();
      decr idx
    done;
    pages_mapped.(s) <-
      Hashtbl.fold (fun pid () acc -> if pid < b.M.db_pages then acc + 1 else acc) seen 0
  done;
  let snapshots =
    Array.init (count - fl + 1) (fun i ->
        let s = fl + i in
        let b = M.boundary ml s in
        let next = if s = count then n else (M.boundary ml (s + 1)).M.pos in
        let delta : (int, unit) Hashtbl.t = Hashtbl.create 64 in
        for j = b.M.pos to next - 1 do
          Hashtbl.replace delta (M.entry ml j).M.pid ()
        done;
        { Retro.si_id = s;
          si_ts = b.M.ts;
          si_boundary = b.M.pos;
          si_db_pages = b.M.db_pages;
          si_pages_mapped = pages_mapped.(s);
          si_delta_entries = next - b.M.pos;
          si_delta_pages = Hashtbl.length delta;
          si_delta_bytes = (next - b.M.pos) * Storage.Page.size })
  in
  let l1, l2, skippy_entries = M.skippy_stats ml in
  { Retro.an_snapshots = snapshots;
    an_maplog_entries = n;
    an_pagelog_pages = Retro.Pagelog.length t.Retro.pagelog;
    an_pagelog_bytes = Retro.Pagelog.size_bytes t.Retro.pagelog;
    an_db_pages = Storage.Pager.n_pages t.Retro.pager;
    an_distinct_pages = distinct;
    an_chain_max = chain_max;
    an_chain_mean = chain_mean;
    an_space_amplification = (if distinct = 0 then 0. else float_of_int n /. float_of_int distinct);
    an_skippy_enabled = M.skippy_enabled ml;
    an_skippy_l1 = l1;
    an_skippy_l2 = l2;
    an_skippy_entries = skippy_entries }

(* The ANALYZE ARCHIVE lines, including the [entries=] suffix the old
   renderer printed when a delta's entry and page counts differed. *)
let render (a : Retro.analysis) =
  let mb b = float_of_int b /. 1e6 in
  [ Printf.sprintf "snapshots: %d" (Array.length a.Retro.an_snapshots);
    Printf.sprintf "maplog entries: %d" a.Retro.an_maplog_entries;
    Printf.sprintf "pagelog: %d pages, %d bytes (%.2f MB)" a.Retro.an_pagelog_pages
      a.Retro.an_pagelog_bytes (mb a.Retro.an_pagelog_bytes);
    Printf.sprintf "current database: %d pages (%.2f MB)" a.Retro.an_db_pages
      (mb (a.Retro.an_db_pages * Storage.Page.size));
    Printf.sprintf "archived pages: %d distinct, chain length mean %.2f max %d"
      a.Retro.an_distinct_pages a.Retro.an_chain_mean a.Retro.an_chain_max;
    Printf.sprintf "space amplification: %.2f archived copies per archived page"
      a.Retro.an_space_amplification;
    Printf.sprintf "skippy: %s, %d L1 + %d L2 segment digests, %d digest entries"
      (if a.Retro.an_skippy_enabled then "on" else "off")
      a.Retro.an_skippy_l1 a.Retro.an_skippy_l2 a.Retro.an_skippy_entries ]
  @ (Array.to_list a.Retro.an_snapshots
    |> List.map (fun (si : Retro.snapshot_info) ->
           Printf.sprintf "snapshot %d: boundary=%d db_pages=%d spt=%d delta=%d pages (%.2f MB)%s"
             si.si_id si.si_boundary si.si_db_pages si.si_pages_mapped si.si_delta_pages
             (mb si.si_delta_bytes)
             (if si.si_delta_entries <> si.si_delta_pages then
                Printf.sprintf " entries=%d" si.si_delta_entries
              else "")))

(* sys_snapshots as the model analysis would fill it: vacuumed ids first
   (archive columns zeroed), then the live ones with the cumulative
   reclaimable bytes. *)
let sys_snapshots_rows (t : Retro.t) =
  let fl = Retro.first_live t in
  let vacuumed =
    List.init (fl - 1) (fun i ->
        let s = i + 1 in
        [| R.Int s; R.Real (Retro.snapshot_ts_raw t s); R.Int 0; R.Int 0; R.Int 0; R.Int 0;
           R.Int 0; R.Int 0; R.Int 0; R.Int 0; R.Text "vacuumed"; R.Int 0 |])
  in
  let cum = ref 0 in
  let live =
    Array.to_list (analyze t).Retro.an_snapshots
    |> List.map (fun (si : Retro.snapshot_info) ->
           cum := !cum + si.si_delta_bytes;
           [| R.Int si.si_id; R.Real si.si_ts; R.Int si.si_boundary; R.Int si.si_db_pages;
              R.Int si.si_pages_mapped; R.Int si.si_delta_entries; R.Int si.si_delta_pages;
              R.Int si.si_delta_bytes;
              R.Int (if Retro.spt_cached t si.si_id then 1 else 0);
              R.Int (if Retro.is_damaged t si.si_id then 1 else 0);
              R.Text "retained"; R.Int !cum |])
  in
  vacuumed @ live

(* VACUUM SNAPSHOTS ... DRY RUN rows for a run keeping [keep_from] on. *)
let dry_run_rows (t : Retro.t) ~keep_from =
  Array.to_list (analyze t).Retro.an_snapshots
  |> List.filter (fun (si : Retro.snapshot_info) -> si.si_id < keep_from)
  |> List.map (fun (si : Retro.snapshot_info) ->
         [| R.Int si.si_id; R.Int si.si_delta_entries; R.Int si.si_delta_bytes |])
