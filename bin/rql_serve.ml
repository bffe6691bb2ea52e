(* Multi-client RQL server: one engine, one session per connection.

   A single process owns the shared immutable core (both the data and
   the meta database); every accepted connection gets its own
   [Sqldb.Db] session pair and its own domain, so concurrent clients read
   in parallel under the pager's reader lock while writes serialize
   through commit (DESIGN.md §15).

   Line protocol (newline-terminated, UTF-8):

     client -> server   one SQL statement per line; a leading "@meta "
                        routes the statement to the meta database;
                        ".quit" closes the connection
     server -> client   "ok <ncols> <nrows>" then one tab-separated
                        header line and <nrows> tab-separated data
                        lines, or "error <message>" on failure; each
                        reply ends with an empty line

   On connect the server sends "rql <session_id>".

     rql_serve --port 7877
     rql_serve --self-test --clients 4   # in-process smoke, exits 0/1
*)

module E = Sqldb.Engine
module R = Storage.Record
module Db = Sqldb.Db

let send oc fmt = Printf.ksprintf (fun s -> output_string oc s; output_char oc '\n') fmt

let reply oc (res : E.result) =
  send oc "ok %d %d" (Array.length res.E.columns) (List.length res.E.rows);
  send oc "%s" (String.concat "\t" (Array.to_list res.E.columns));
  List.iter
    (fun row ->
      send oc "%s"
        (String.concat "\t" (Array.to_list (Array.map R.value_to_string row))))
    res.E.rows;
  send oc "";
  flush oc

let reply_error oc msg =
  (* Keep the protocol line-oriented even for multi-line messages. *)
  let msg = String.map (function '\n' | '\r' -> ' ' | c -> c) msg in
  send oc "error %s" msg;
  send oc "";
  flush oc

(* One connection: a session on each database, statements executed on
   the session so sys_sessions / sys_scopes attribute its load. *)
let serve_client (ctx : Rql.ctx) fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Db.with_session ctx.Rql.data (fun data ->
      Db.with_session ctx.Rql.meta (fun meta ->
          send oc "rql %d" (Db.session_id data);
          flush oc;
          let rec loop () =
            match input_line ic with
            | exception End_of_file -> ()
            | line ->
              let line = String.trim line in
              if line = ".quit" then ()
              else begin
                (if line = "" then reply_error oc "empty statement"
                 else
                   let db, sql =
                     if String.length line > 5 && String.sub line 0 5 = "@meta" then
                       (meta, String.trim (String.sub line 5 (String.length line - 5)))
                     else (data, line)
                   in
                   match E.exec db sql with
                   | res -> reply oc res
                   | exception E.Error msg -> reply_error oc msg);
                loop ()
              end
          in
          loop ()));
  (try Unix.close fd with Unix.Unix_error _ -> ())

let listen_socket port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 64;
  sock

let bound_port sock =
  match Unix.getsockname sock with
  | Unix.ADDR_INET (_, p) -> p
  | _ -> failwith "rql_serve: listening socket is not ADDR_INET"

(* Accept loop: domain per connection.  Finished domains are reaped on
   every accept so a long-lived server does not accumulate them. *)
let accept_loop ctx sock ~max_conns =
  let live = ref [] in
  let reap () =
    live :=
      List.filter
        (fun (done_, d) -> if Atomic.get done_ then (Domain.join d; false) else true)
        !live
  in
  let rec go accepted =
    if max_conns > 0 && accepted >= max_conns then begin
      List.iter (fun (_, d) -> Domain.join d) !live;
      live := []
    end
    else begin
      let fd, _addr = Unix.accept sock in
      reap ();
      let done_ = Atomic.make false in
      let d =
        Domain.spawn (fun () ->
            Fun.protect
              ~finally:(fun () -> Atomic.set done_ true)
              (fun () ->
                try serve_client ctx fd
                with
                | Unix.Unix_error _ | Sys_error _ | End_of_file ->
                  (try Unix.close fd with Unix.Unix_error _ -> ())))
      in
      live := (done_, d) :: !live;
      go (accepted + 1)
    end
  in
  go 0

(* --- self-test ---------------------------------------------------------- *)

(* Build a small snapshot history, serve it, and drive [clients]
   concurrent connections each reading every snapshot AS OF; verify all
   replies against the single-threaded oracle.  One more client goes
   first and sends SQL-form calls that fail: each must get an error
   reply, and the server must go on serving the clients after it. *)
let self_test ~clients =
  let ctx = Rql.create () in
  ignore (E.exec ctx.Rql.data "CREATE TABLE ev (u TEXT, v INTEGER)");
  let sids =
    List.map
      (fun i ->
        ignore
          (E.exec ctx.Rql.data
             (Printf.sprintf "INSERT INTO ev VALUES ('u%d', %d)" i (i * 10)));
        Rql.declare_snapshot ctx)
      [ 1; 2; 3; 4 ]
  in
  let query sid = Printf.sprintf "SELECT AS OF %d COUNT(*), SUM(v) FROM ev" sid in
  let oracle =
    List.map
      (fun sid ->
        let res = E.exec ctx.Rql.data (query sid) in
        List.map (fun r -> Array.to_list (Array.map R.value_to_string r)) res.E.rows)
      sids
  in
  let sock = listen_socket 0 in
  let port = bound_port sock in
  let server = Domain.spawn (fun () -> accept_loop ctx sock ~max_conns:(clients + 1)) in
  (* A reply that never comes (a server that died) fails the test
     instead of hanging it. *)
  let connect () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let banner = input_line ic in
    if String.length banner < 4 || String.sub banner 0 4 <> "rql " then
      failwith ("bad banner: " ^ banner);
    (fd, ic, oc)
  in
  let quit fd oc =
    send oc ".quit";
    flush oc;
    Unix.close fd
  in
  let failing () =
    let fd, ic, oc = connect () in
    let errors =
      List.for_all
        (fun sql ->
          send oc "%s" sql;
          flush oc;
          let status = input_line ic in
          let blank = input_line ic in
          String.starts_with ~prefix:"error " status && blank = "")
        [ "@meta SELECT CollateData(snap_id, 'SELECT nope FROM ev', 'T') FROM SnapIds";
          "@meta SELECT AggregateDataInVariable(snap_id, 'SELECT v FROM ev', 'T', 'median') \
           FROM SnapIds" ]
    in
    quit fd oc;
    errors
  in
  let client _i () =
    let fd, ic, oc = connect () in
    let got =
      List.map
        (fun sid ->
          send oc "%s" (query sid);
          flush oc;
          let status = input_line ic in
          (match String.split_on_char ' ' status with
          | "ok" :: _ -> ()
          | _ -> failwith ("bad status: " ^ status));
          let _header = input_line ic in
          let row = input_line ic in
          let blank = input_line ic in
          if blank <> "" then failwith "missing terminator";
          [ String.split_on_char '\t' row ])
        sids
    in
    quit fd oc;
    got = oracle
  in
  let errors = failing () in
  let doms = List.init clients (fun i -> Domain.spawn (client i)) in
  let oks = List.map Domain.join doms in
  Domain.join server;
  Unix.close sock;
  if not errors then begin
    prerr_endline "self-test FAILED: a failing SQL-form call got no error reply";
    exit 1
  end
  else if List.for_all Fun.id oks then begin
    Printf.printf
      "self-test ok: failing SQL-form calls answered with errors; %d clients x %d snapshots \
       match the oracle\n"
      clients (List.length sids);
    exit 0
  end
  else begin
    prerr_endline "self-test FAILED: client results diverge from the oracle";
    exit 1
  end

(* --- entry point -------------------------------------------------------- *)

open Cmdliner

let port =
  let doc = "TCP port to listen on (loopback only)." in
  Arg.(value & opt int 7877 & info [ "port" ] ~docv:"PORT" ~doc)

let max_conns =
  let doc = "Exit after serving this many connections (0 = serve forever)." in
  Arg.(value & opt int 0 & info [ "max-conns" ] ~docv:"N" ~doc)

let selftest =
  let doc = "Run the in-process concurrency smoke test and exit." in
  Arg.(value & flag & info [ "self-test" ] ~doc)

let clients =
  let doc = "Number of concurrent clients for --self-test." in
  Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N" ~doc)

let wal_path =
  let doc =
    "Open the served data database against a write-ahead log at $(docv), recovering \
     it if the file exists."
  in
  Arg.(value & opt (some string) None & info [ "wal" ] ~docv:"PATH" ~doc)

let checkpoint_bytes =
  let doc =
    "With --wal, auto-checkpoint after the log grows past $(docv) bytes (0 = only \
     explicit CHECKPOINT statements)."
  in
  Arg.(value & opt int 0 & info [ "checkpoint-bytes" ] ~docv:"BYTES" ~doc)

let main port max_conns selftest clients wal checkpoint_bytes =
  if selftest then self_test ~clients
  else begin
    let ctx =
      match wal with
      | Some path ->
        let db, recovery = Sqldb.Db.open_wal ~path () in
        (match recovery with
        | Some r ->
          Printf.printf "rql_serve: recovered %s (%d snapshots)\n%!" path
            r.Sqldb.Db.rec_snapshots
        | None -> Printf.printf "rql_serve: created WAL-backed database at %s\n%!" path);
        Rql.create ~data:db ()
      | None -> Rql.create ()
    in
    if checkpoint_bytes > 0 then
      Sqldb.Db.set_checkpoint_threshold ctx.Rql.data checkpoint_bytes;
    let sock = listen_socket port in
    Printf.printf "rql_serve: listening on 127.0.0.1:%d (one session per connection)\n%!"
      (bound_port sock);
    accept_loop ctx sock ~max_conns;
    Sqldb.Db.close_wal ctx.Rql.data
  end

let cmd =
  let doc = "Serve the RQL engine to concurrent clients over a line protocol" in
  Cmd.v (Cmd.info "rql_serve" ~doc)
    Term.(const main $ port $ max_conns $ selftest $ clients $ wal_path $ checkpoint_bytes)

let () = exit (Cmd.eval cmd)
