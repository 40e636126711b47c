open Dsgraph

type status = Undecided | In_mis | Out

type msg = Priority of int * int (* priority, id *) | In_announce

type nstate = {
  rng : Rng.t;
  mutable status : status;
  mutable current : int * int; (* this iteration's (priority, id) *)
  mutable exchange : bool; (* alternating exchange/decide rounds *)
}

let priority_bits = 10

let run ?(seed = 1) g =
  let n = Graph.n g in
  let id_bits = Congest.Bits.id_bits ~n in
  let program =
    {
      Congest.Sim.init =
        (fun ~node ~neighbors:_ ->
          {
            rng = Rng.create ((seed * 1_000_003) + node);
            status = Undecided;
            current = (0, node);
            exchange = true;
          });
      round =
        (fun ~round:_ ~node ~state:st ~inbox ->
          (* decided nodes only react to announcements (nothing to do) *)
          match st.status with
          | In_mis | Out -> (st, [], Congest.Sim.Halt)
          | Undecided ->
              if st.exchange then begin
                (* if any neighbor joined the MIS last round, drop out *)
                let dominated =
                  List.exists (fun (_, m) -> m = In_announce) inbox
                in
                if dominated then begin
                  st.status <- Out;
                  (st, [], Congest.Sim.Halt)
                end
                else begin
                  st.exchange <- false;
                  let p = Rng.int st.rng (1 lsl priority_bits) in
                  st.current <- (p, node);
                  let out =
                    Array.to_list
                      (Array.map
                         (fun nb -> (nb, Priority (p, node)))
                         (Graph.neighbors g node))
                  in
                  (st, out, Congest.Sim.Run)
                end
              end
              else begin
                st.exchange <- true;
                let beaten =
                  List.exists
                    (fun (_, m) ->
                      match m with
                      | Priority (p, i) -> (p, i) > st.current
                      | In_announce -> false)
                    inbox
                in
                let dominated =
                  List.exists (fun (_, m) -> m = In_announce) inbox
                in
                if dominated then begin
                  st.status <- Out;
                  (st, [], Congest.Sim.Halt)
                end
                else if not beaten then begin
                  st.status <- In_mis;
                  let out =
                    Array.to_list
                      (Array.map
                         (fun nb -> (nb, In_announce))
                         (Graph.neighbors g node))
                  in
                  (st, out, Congest.Sim.Run)
                end
                else (st, [], Congest.Sim.Run)
              end);
    }
  in
  let bits = function
    | Priority _ -> 1 + priority_bits + id_bits
    | In_announce -> 1
  in
  let config =
    Congest.Sim.Config.(
      default
      |> with_max_rounds ((8 * id_bits) + 64)
      |> with_bandwidth
           (max (Congest.Bits.bandwidth ~n) (1 + priority_bits + id_bits)))
  in
  let states, stats = Congest.Sim.simulate ~config ~bits g program in
  (Array.map (fun st -> st.status = In_mis) states, stats)
