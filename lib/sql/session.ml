(* Three session entry points under their older names: [create] is
   [Db.session], [scope] a session's metric scope and [close]
   [Db.close_session].  The engine, the server and the tests call [Db]
   directly; perfbench's AS OF reader (perfbench/asof_mixed.ml) names
   these. *)

let create = Db.session
let scope (t : Db.t) = t.Db.scope
let close = Db.close_session
