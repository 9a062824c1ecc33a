let escape s = String.concat "\\\"" (String.split_on_char '"' s)

let result ?(max_markings = 4) (r : Explorer.result) =
  let net = Dynamics.net r.ctx in
  let ctx = r.ctx in
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "digraph %S {\n  rankdir=TB;\n  node [shape=box fontsize=10];\n"
    (net.Petri.Net.name ^ "-gpo");
  (* Globally unique state ids across runs. *)
  let ids = State.Table.create 64 in
  let next = ref 0 in
  let id_of run_index s =
    match State.Table.find_opt ids s with
    | Some i -> i
    | None ->
        let i = !next in
        incr next;
        State.Table.add ids s i;
        let markings = State.mapping s in
        let shown = List.filteri (fun i _ -> i < max_markings) markings in
        let en = Dynamics.enabling ctx s in
        let dead = not (World_set.is_empty (Dynamics.deadlock_worlds en s)) in
        let label =
          Printf.sprintf "run %d / %d world(s)\\n%s%s" run_index
            (World_set.cardinal (State.valid s))
            (String.concat "\\n"
               (List.map
                  (fun m ->
                    escape (Petri.Bitset.to_string ~name:(Petri.Net.place_name net) m))
                  shown))
            (if List.length markings > max_markings then
               Printf.sprintf "\\n… %d more" (List.length markings - max_markings)
             else "")
        in
        out "  s%d [label=\"%s\"%s];\n" i label
          (if dead then " style=filled fillcolor=lightcoral" else "");
        i
  in
  let label_of (l : Explorer.label) =
    let multiples =
      Petri.Bitset.fold
        (fun t acc -> Petri.Net.transition_name net t :: acc)
        l.multiples []
      |> List.rev
    in
    let singles = List.map (Petri.Net.transition_name net) l.singles in
    escape (String.concat ", " (multiples @ singles))
  in
  List.iteri
    (fun run_index (run : Explorer.run) ->
      (* A run is a path: emit it forward from its initial state, so the
         output follows the run and not the hash order of the
         predecessor map (state hashes are built from node ids). *)
      let successor = State.Table.create (State.Table.length run.predecessor) in
      State.Table.iter
        (fun s' (label, s) -> State.Table.replace successor s (label, s'))
        run.predecessor;
      let rec walk s =
        let i = id_of run_index s in
        match State.Table.find_opt successor s with
        | None -> ()
        | Some (label, s') ->
            let i' = id_of run_index s' in
            out "  s%d -> s%d [label=\"%s\"];\n" i i' (label_of label);
            walk s'
      in
      walk run.initial;
      (* Restart provenance. *)
      match run.origin with
      | Explorer.Init -> ()
      | Explorer.Deviation d -> begin
          match State.Table.find_opt ids d.state with
          | Some origin ->
              out "  s%d -> s%d [style=dashed label=\"restart: %s\"];\n" origin
                (id_of run_index run.initial)
                (escape (Petri.Net.transition_name net d.transition))
          | None -> ()
        end)
    r.runs;
  out "}\n";
  Buffer.contents buf

let write path r =
  let oc = open_out path in
  output_string oc (result r);
  close_out oc
