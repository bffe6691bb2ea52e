(* Ablation experiments for the design choices DESIGN.md calls out —
   extensions beyond the paper's own figures.

   (a) Skippy skip index (paper's [23]): SPT-build scan length with and
       without the multi-level Maplog digests, as a function of how old
       the queried snapshot is.  Without Skippy the scan is proportional
       to the whole Maplog suffix; with it, duplicates collapse into
       per-segment digests.

   (b) Snapshot page cache size (the memory-cost discussion opening
       §5.3): RQL latency for an I/O-intensive query as the snapshot
       cache shrinks below the query's working set — the paper's
       assumption "the cache can hold the snapshot pages requested by a
       single RQL query" made quantitative. *)

module S = Storage.Stats

let run () =
  Util.section "Ablations — Skippy skip index; snapshot page-cache size";
  let uw = Tpch.Workload.uw30 in
  let fx = Fixtures.main uw in
  let ctx = fx.Fixtures.ctx in
  let retro = Sqldb.Db.retro_exn ctx.Rql.data in
  let history = fx.Fixtures.config.Fixtures.snapshots in

  Util.subsection "(a) SPT build: maplog entries visited per build";
  Printf.printf "%-14s %14s %14s %10s\n" "snapshot" "linear scan" "skippy scan" "speedup";
  List.iter
    (fun sid ->
      let visited skippy =
        Retro.set_skippy retro skippy;
        let m0 = Obs.Scope.get S.c_maplog_scanned in
        ignore (Retro.build_spt retro sid);
        Obs.Scope.get S.c_maplog_scanned - m0
      in
      let linear = visited false in
      let skip = visited true in
      Printf.printf "%-14s %14d %14d %9.1fx\n"
        (if sid = 1 then "oldest (1)" else Printf.sprintf "Slast-%d" (history - sid))
        linear skip
        (float_of_int linear /. float_of_int (max 1 skip)))
    [ 1; history / 4; history / 2; history - 10 ];
  Retro.set_skippy retro true;

  Util.subsection "(b) snapshot cache size vs RQL latency (AggVar(Qs_25, Qq_io, AVG))";
  Printf.printf "%-16s %12s %14s %14s\n" "cache (pages)" "total (s)" "pagelog reads" "hit rate";
  let qs = Queries.qs_range ~start:1 ~len:25 in
  List.iter
    (fun pages ->
      Retro.set_cache_pages retro pages;
      let counters = [ S.c_snap_cache_hits; S.c_snap_cache_misses; S.c_pagelog_reads ] in
      let before = List.map Obs.Scope.get counters in
      let run =
        Rql.aggregate_data_in_variable ctx ~qs ~qq:Queries.qq_io ~table:"bench_abl" ~fn:"avg"
      in
      let hits, misses, pagelog_reads =
        match List.map2 (fun c b -> Obs.Scope.get c - b) counters before with
        | [ h; m; p ] -> (h, m, p)
        | _ -> invalid_arg "ablation: counter deltas"
      in
      Printf.printf "%-16d %12.4f %14d %13.1f%%\n" pages
        (Rql.Iter_stats.total_s run)
        pagelog_reads
        (100. *. float_of_int hits /. float_of_int (max 1 (hits + misses))))
    [ 64; 128; 256; 512; 4096 ];
  Retro.set_cache_pages retro Retro.default_cache_pages;
  Util.expectation
    "once the cache is smaller than the query's snapshot working set (~450 orders pages), \
     hot iterations stop benefiting from inter-snapshot sharing and pagelog reads approach \
     the all-cold count"
