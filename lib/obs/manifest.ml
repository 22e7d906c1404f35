let schema = "trgplace-manifest/3"

let v2_schema = "trgplace-manifest/2"

let v1_schema = "trgplace-manifest/1"

type status = Ok | Partial | Failed

let status_to_string = function
  | Ok -> "ok"
  | Partial -> "partial-failure"
  | Failed -> "failed"

let gc_json () =
  let s = Gc.quick_stat () in
  Json.Obj
    [
      ("minor_words", Json.Float s.Gc.minor_words);
      ("promoted_words", Json.Float s.Gc.promoted_words);
      ("major_words", Json.Float s.Gc.major_words);
      ("heap_words", Json.Int s.Gc.heap_words);
      ("top_heap_words", Json.Int s.Gc.top_heap_words);
      ("minor_collections", Json.Int s.Gc.minor_collections);
      ("major_collections", Json.Int s.Gc.major_collections);
      ("compactions", Json.Int s.Gc.compactions);
    ]

let build ~command ?(argv = []) ?(config = []) ?explain ?journal ~status ~exit_code () =
  let metrics = Metrics.to_json () in
  let field k =
    match Json.member k metrics with Some v -> v | None -> Json.Obj []
  in
  Json.Obj
    ([
       ("schema", Json.String schema);
       ("command", Json.String command);
       ("argv", Json.List (List.map (fun a -> Json.String a) argv));
       ("config", Json.Obj config);
       ("status", Json.String (status_to_string status));
       ("exit_code", Json.Int exit_code);
       ("gc", gc_json ());
       ("counters", field "counters");
       ("gauges", field "gauges");
       ("histograms", field "histograms");
       ("spans", Span.to_json ());
     ]
    @ (match explain with None -> [] | Some e -> [ ("explain", e) ])
    @ match journal with None -> [] | Some j -> [ ("journal", j) ])

let write path json =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (match
     output_string oc (Json.to_string ~indent:2 json);
     output_char oc '\n'
   with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  Sys.rename tmp path

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> Json.of_string contents

let validate json =
  let require name check =
    match Json.member name json with
    | None -> Error (Printf.sprintf "manifest: missing %S member" name)
    | Some v ->
      if check v then Result.Ok ()
      else Error (Printf.sprintf "manifest: member %S has the wrong type" name)
  in
  let is_obj = function Json.Obj _ -> true | _ -> false in
  let is_list = function Json.List _ -> true | _ -> false in
  let is_string = function Json.String _ -> true | _ -> false in
  let is_int = function Json.Int _ -> true | _ -> false in
  let ( let* ) = Result.bind in
  let* () =
    match Json.member "schema" json with
    | Some (Json.String s) when s = schema || s = v2_schema || s = v1_schema ->
      Result.Ok ()
    | Some (Json.String s) ->
      Error
        (Printf.sprintf "manifest: unsupported schema %S (want %S, %S or %S)" s
           schema v2_schema v1_schema)
    | Some _ | None -> Error "manifest: missing schema marker"
  in
  let* () = require "command" is_string in
  let* () = require "argv" is_list in
  let* () = require "config" is_obj in
  let* () = require "status" is_string in
  let* () = require "exit_code" is_int in
  let* () = require "gc" is_obj in
  let* () = require "counters" is_obj in
  let* () = require "gauges" is_obj in
  let* () = require "histograms" is_obj in
  let* () = require "spans" is_list in
  let* () =
    match Json.member "explain" json with
    | None -> Result.Ok ()
    | Some v ->
      if is_obj v then Result.Ok ()
      else Error "manifest: member \"explain\" has the wrong type"
  in
  match Json.member "journal" json with
  | None -> Result.Ok ()
  | Some v ->
    if is_obj v then Result.Ok ()
    else Error "manifest: member \"journal\" has the wrong type"

(* --- regression diffing ---------------------------------------------- *)

type drift = {
  metric : string;
  base : float option;
  current : float option;
  rel : float;
}

(* The comparable surface of a manifest: deterministic metrics only.
   Wall times, GC statistics and span durations are machine noise by
   design and never diffed. *)
let comparable json =
  let fields kind key extract =
    match Json.member key json with
    | Some (Json.Obj fields) ->
      List.filter_map
        (fun (name, v) ->
          Option.map (fun x -> (kind ^ "/" ^ name, x)) (extract v))
        fields
    | _ -> []
  in
  fields "counters" "counters" Json.to_float
  @ fields "gauges" "gauges" Json.to_float
  @ fields "histograms" "histograms" (fun v ->
        Option.bind (Json.member "total" v) Json.to_float)

let relative_delta a b =
  if a = b then 0.
  else Float.abs (b -. a) /. Float.max 1. (Float.abs a)

let selected ~only metric =
  let i = match String.index_opt metric '/' with Some i -> i + 1 | None -> 0 in
  let tail = String.sub metric i (String.length metric - i) in
  only = []
  || List.exists
       (fun p -> String.starts_with ~prefix:p metric || String.starts_with ~prefix:p tail)
       only

let diff ?(tolerance = 0.) base current =
  let a = comparable base and b = comparable current in
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k (Some v, None)) a;
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | Some (base_v, _) -> Hashtbl.replace tbl k (base_v, Some v)
      | None -> Hashtbl.replace tbl k (None, Some v))
    b;
  Hashtbl.fold
    (fun metric (base_v, cur_v) acc ->
      match (base_v, cur_v) with
      | Some x, Some y ->
        let rel = relative_delta x y in
        if rel > tolerance then
          { metric; base = Some x; current = Some y; rel } :: acc
        else acc
      | _ ->
        { metric; base = base_v; current = cur_v; rel = infinity } :: acc)
    tbl []
  |> List.sort (fun d1 d2 -> compare d1.metric d2.metric)
