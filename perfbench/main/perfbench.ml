(* The SpecCC benchmark: runs one workload for a fixed time, checks
   every verdict against the input's known answer, and prints the
   end-to-end metrics (or, with --trace 1, the per-layer metrics) as a
   JSON object on the last line of standard output.  See
   perfbench/README.md.

     perfbench.exe --workload table1 --seed 1 --seconds 25 --trace 0

   Exit codes: 0 success, 1 a wrong definite verdict (or a traced
   replay that disagrees with the pipeline), 2 usage error. *)

open Perfbench

let workloads =
  [
    ("table1", W_table1.run);
    ("localize", W_localize.run);
    ("serve_mix", W_serve.run);
    ("watch_edits", W_watch.run);
  ]

let usage () =
  prerr_endline
    "usage: perfbench --workload table1|localize|serve_mix|watch_edits \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; parse rest
    | "--trace" :: t :: rest ->
      trace := (match t with "0" -> Some false | "1" -> Some true | _ -> None);
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run = match List.assoc_opt !workload workloads with Some r -> r | None -> usage () in
  let seed, seconds, trace =
    match !seed, !seconds, !trace with
    | Some n, Some s, Some t when s > 0. -> (n, s, t)
    | _ -> usage ()
  in
  match run ~seed ~seconds ~trace with
  | exception Answer.Wrong_answer why ->
    Printf.eprintf "perfbench: wrong answer: %s\n%!" why;
    exit 1
  | r ->
    let s = Metrics.summarize r in
    Printf.printf "workload %s seed %d seconds %g trace %d\n" !workload seed seconds
      (if trace then 1 else 0);
    List.iter (fun (k, v) -> Printf.printf "note %s = %s\n" k v) r.Run.notes;
    let failed_frac = float_of_int r.Run.failed /. float_of_int r.Run.attempted in
    let detail = function
      | "setup_s" -> Printf.sprintf "median of %d set-ups" (List.length r.Run.setup_s)
      | "op_p50_ms" -> Printf.sprintf "n=%d" s.Metrics.samples
      | "op_tail_ms" ->
        let t = s.Metrics.tail in
        Printf.sprintf "p%.2f, %d samples beyond, median of %d block%s, n=%d" t.Stats.percentile
          t.Stats.beyond t.Stats.blocks (if t.Stats.blocks = 1 then "" else "s") s.Metrics.samples
      | "throughput_ops_s" -> Printf.sprintf "%d ops in %.3f s" s.Metrics.samples r.Run.window_s
      | "definite_frac" ->
        Printf.sprintf "failed_frac %g: %d of %d attempted" failed_frac r.Run.failed r.Run.attempted
      | _ -> ""
    in
    List.iter
      (fun (name, unit) ->
         Printf.printf "e2e %-18s %14.6f %-8s %s\n" name (List.assoc name s.Metrics.values) unit
           (detail name))
      Metrics.end_to_end;
    let metrics =
      if trace then begin
        List.iter
          (fun (name, unit) ->
             Printf.printf "layer %-30s %14.6g %s\n" name
               (Option.value (List.assoc_opt name r.Run.layers) ~default:0.) unit)
          Metrics.per_layer;
        List.map
          (fun (name, unit) ->
             (name, unit, Option.value (List.assoc_opt name r.Run.layers) ~default:0.))
          Metrics.per_layer
      end
      else
        List.map (fun (name, unit) -> (name, unit, List.assoc name s.Metrics.values)) Metrics.end_to_end
    in
    print_endline (Metrics.result_line ~attempted:r.Run.attempted ~failed:r.Run.failed metrics)
