(* Soak profile hook: [dune runtest --profile soak] multiplies QCheck
   iteration counts via TRGPLACE_QCHECK_FACTOR (see the root dune file). *)
let scaled n =
  match Sys.getenv_opt "TRGPLACE_QCHECK_FACTOR" with
  | Some f -> ( try n * int_of_string (String.trim f) with Failure _ -> n)
  | None -> n
