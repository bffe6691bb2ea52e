(* TPC-H history inspector.

   Generates a TPC-H database at a scale factor, runs an update workload
   that declares snapshots, and reports the storage-level quantities the
   paper's §4 discusses: per-snapshot diff sizes, Pagelog/Maplog growth,
   and overwrite-cycle progress.  The last line is a digest of the
   history's pages, Pagelog and Maplog (Tpch.Workload.history_digest):
   a storage change that must leave histories byte-identical keeps it.

     dune exec bin/tpch_gen.exe -- --sf 0.01 --uw UW30 --snapshots 20 *)

module E = Sqldb.Engine

open Cmdliner

let sf =
  let doc = "TPC-H scale factor (paper default 1.0; keep small here)." in
  Arg.(value & opt float 0.01 & info [ "sf" ] ~docv:"SF" ~doc)

let uw =
  let doc = "Update workload: UW7.5, UW15, UW30 or UW60." in
  Arg.(value & opt string "UW30" & info [ "uw" ] ~docv:"UW" ~doc)

let snapshots =
  let doc = "Number of refresh+snapshot rounds." in
  Arg.(value & opt int 20 & info [ "snapshots" ] ~docv:"N" ~doc)

let main sf uw_name snapshots =
  let uw = Tpch.Workload.of_name uw_name in
  Printf.printf "TPC-H SF %g, %s (%d orders/snapshot, overwrite cycle ~%d), %d snapshots\n%!"
    sf uw_name
    (Tpch.Workload.orders_per_snapshot uw ~sf)
    (Tpch.Workload.overwrite_cycle uw)
    snapshots;
  let t0 = Unix.gettimeofday () in
  let ctx = Rql.create () in
  let st = Tpch.Dbgen.generate ctx.Rql.data ~sf in
  Printf.printf "initial load: %.2fs  (orders=%d lineitem=%d, db=%d pages)\n%!"
    (Unix.gettimeofday () -. t0)
    (E.int_scalar ctx.Rql.data "SELECT COUNT(*) FROM orders")
    (E.int_scalar ctx.Rql.data "SELECT COUNT(*) FROM lineitem")
    (Storage.Pager.n_pages Sqldb.Db.(ctx.Rql.data.pager));
  let retro = Sqldb.Db.retro_exn ctx.Rql.data in
  Printf.printf "%4s %12s %12s %12s %10s\n" "snap" "cow pages" "pagelog MB" "maplog" "sec";
  for i = 1 to snapshots do
    let cow0 = Obs.Scope.get Storage.Stats.c_cow_archived in
    let t = Unix.gettimeofday () in
    ignore (Tpch.Workload.run ctx st ~uw ~snapshots:1);
    Printf.printf "%4d %12d %12.1f %12d %10.2f\n%!" i
      (Obs.Scope.get Storage.Stats.c_cow_archived - cow0)
      (float_of_int (Retro.pagelog_size_bytes retro) /. 1e6)
      (Retro.maplog_length retro)
      (Unix.gettimeofday () -. t)
  done;
  Printf.printf "done: %d snapshots, pagelog %.1f MB\n"
    (Retro.snapshot_count retro)
    (float_of_int (Retro.pagelog_size_bytes retro) /. 1e6);
  Printf.printf "history digest %s\n" (Tpch.Workload.history_digest ctx.Rql.data)

let cmd =
  let doc = "generate a TPC-H snapshot history and report storage growth" in
  Cmd.v (Cmd.info "tpch_gen" ~doc) Term.(const main $ sf $ uw $ snapshots)

let () = exit (Cmd.eval cmd)
