(* End-to-end benchmark.

     e2e.exe --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
             [--json FILE] [--chrome FILE]
     e2e.exe compare PARENT CHANGE [--spec BENCHMARK.json]
     e2e.exe --check-spec BENCHMARK.json

   A run prints every metric by name and unit, then, as the last line of
   standard output, one JSON object: {"correct", "attempted", "failed",
   "metrics"}. It exits 1 when a correctness check or a traced-run
   self-check fails. [--trace 0] reports the end-to-end metrics,
   [--trace 1] the per-layer ones; [--chrome FILE] also writes the first
   traced operation as a Chrome trace. [--json FILE] appends the result,
   tagged with workload and seed, for [compare]. [all] runs each workload
   in its own process. *)

module Json = Entropy_obs.Json

let usage =
  "e2e.exe --workload NAME|all [--seed N] [--seconds S] [--trace 0|1] [--json FILE] \
   [--chrome FILE]\n\
   e2e.exe compare PARENT CHANGE [--spec FILE]\n\
   e2e.exe --check-spec FILE"

let append_line path line =
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  output_string oc (line ^ "\n");
  close_out oc

let run_one (w : Workloads.t) ~seed ~seconds ~trace ~json ~chrome =
  let seed = Option.value ~default:0 seed in
  let r =
    if trace then Run.traced w ~seed ~seconds ~chrome
    else Run.end_to_end w ~seed ~seconds
  in
  Run.print_table w ~seed ~trace r;
  let tags =
    [
      ("workload", Json.String w.Workloads.name);
      ("seed", Json.Int seed);
      ("trace", Json.Int (if trace then 1 else 0));
    ]
  in
  Option.iter (fun path -> append_line path (Json.to_string (Json.Obj (tags @ Run.fields r)))) json;
  print_endline (Json.to_string (Json.Obj (Run.fields r)));
  if r.Run.correct then 0 else 1

(* [all]: one child process per workload, each single-threaded. *)
let run_all argv =
  let codes =
    List.map
      (fun (w : Workloads.t) ->
        let args =
          Array.map (fun a -> if a = "all" then w.Workloads.name else a) argv
        in
        args.(0) <- Sys.executable_name;
        let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED c -> c
        | _ -> 1)
      Workloads.all
  in
  if List.for_all (( = ) 0) codes then 0 else 1

let check_spec path =
  let problems =
    Catalogue.check_spec
      ~workloads:(List.map (fun w -> w.Workloads.name) Workloads.all)
      (Catalogue.load_spec path)
  in
  List.iter (fun p -> Printf.eprintf "%s: %s\n" path p) problems;
  if problems = [] then 0 else 1

let main argv =
  match Array.to_list argv with
  | _ :: "compare" :: rest -> (
    let spec = ref "BENCHMARK.json" and files = ref [] in
    let specs = [ ("--spec", Arg.Set_string spec, "FILE benchmark spec (bounds)") ] in
    Arg.parse_argv ~current:(ref 0)
      (Array.of_list ("compare" :: rest))
      specs
      (fun f -> files := !files @ [ f ])
      usage;
    match !files with
    | [ parent; change ] -> Compare.main ~spec:!spec ~parent ~change
    | _ -> raise (Arg.Bad "compare takes PARENT and CHANGE"))
  | _ ->
    let workload = ref "" and seed = ref None and seconds = ref 20. in
    let trace = ref 0 and json = ref None and chrome = ref None and spec = ref None in
    let specs =
      [
        ("--workload", Arg.Set_string workload, "NAME workload, or all");
        ("--seed", Arg.Int (fun s -> seed := Some s), "N seed ordering the input pool (default 0)");
        ("--seconds", Arg.Set_float seconds, "S measuring budget (default 20)");
        ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
        ("--json", Arg.String (fun f -> json := Some f), "FILE append the result to FILE");
        ("--chrome", Arg.String (fun f -> chrome := Some f), "FILE Chrome trace of a traced run");
        ("--check-spec", Arg.String (fun f -> spec := Some f), "FILE check BENCHMARK.json");
      ]
    in
    Arg.parse_argv argv specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
    if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace takes 0 or 1");
    match (!spec, !workload) with
    | Some path, _ -> check_spec path
    | None, "all" -> run_all argv
    | None, name -> (
      match Workloads.find name with
      | Some w ->
        run_one w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~json:!json
          ~chrome:!chrome
      | None ->
        raise
          (Arg.Bad
             (Printf.sprintf "unknown workload %S (one of: %s, all)" name
                (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all)))))

let () =
  match main Sys.argv with
  | code -> exit code
  | exception Arg.Bad msg ->
    prerr_endline msg;
    exit 2
  | exception Arg.Help msg ->
    print_string msg;
    exit 0
