let name = "CPA"

let allocate ctx = Common.growth_loop ~gain:Common.Efficiency ctx
