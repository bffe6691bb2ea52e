(* One SELECT through the engine's public steps: Engine.parse,
   Engine.prepare_select and Engine.exec_prepared, each its own call so
   the traced run can span them without doing extra work.  Returns the
   result and the three wall times. *)
let run db sql =
  let sel, parse_s =
    Span.timed "sql.parse" (fun () ->
        match Sqldb.Engine.parse sql with
        | Sqldb.Ast.Select sel -> sel
        | _ -> invalid_arg ("Sql_path.run: not a SELECT: " ^ sql))
  in
  let p, prepare_s =
    Span.timed "sql.prepare" (fun () -> Sqldb.Engine.prepare_select db ~key:sql sel)
  in
  let res, exec_s = Span.timed "sql.exec_prepared" (fun () -> Sqldb.Engine.exec_prepared p) in
  (res, parse_s, prepare_s, exec_s)
